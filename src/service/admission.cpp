#include "service/admission.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

#include "net/path.hpp"
#include "obs/metrics.hpp"

namespace chronus::service {

namespace {

/// Flushes the round's outcome counts (admission.* in DESIGN.md §11) on
/// every exit path of decide(). All counts derive from the returned round,
/// so the metrics agree with the dispatcher's view by construction.
struct AdmissionTally {
  const AdmissionRound* round;

  ~AdmissionTally() {
    if (obs::registry() == nullptr) return;
    obs::add("admission.rounds");
    obs::add("admission.singles", round->singles.size());
    obs::add("admission.deferrals", round->deferred.size());
    obs::add("admission.joint_groups", round->groups.size());
    for (const auto& g : round->groups) {
      obs::add("admission.rescues", g.members.size());
    }
    for (const auto& [idx, status] : round->rejected) {
      (void)idx;
      switch (status) {
        case RequestStatus::kRejectedDeadline:
          obs::add("admission.reject_deadline");
          break;
        case RequestStatus::kRejectedInfeasible:
          obs::add("admission.reject_infeasible");
          break;
        case RequestStatus::kRejectedCapacity:
          obs::add("admission.reject_capacity");
          break;
        default:
          obs::add("admission.reject_other");
          break;
      }
    }
  }
};

/// Union-find over pending-queue indices, used to group conflicting
/// leftovers by shared footprint links.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);  // keep order
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

AdmissionController::AdmissionController(const net::Graph& base,
                                         AdmissionPolicy policy)
    : base_(&base), policy_(policy) {}

bool AdmissionController::statically_feasible(const Footprint& fp) const {
  for (const auto& [id, amount] : fp) {
    if (amount > base_->link(id).capacity + net::Demand{1e-9}) return false;
  }
  return true;
}

AdmissionRound AdmissionController::decide(
    const std::vector<PendingRequest>& pending, CapacityLedger& ledger,
    sim::SimTime now, bool joint) const {
  AdmissionRound round;
  const AdmissionTally tally{&round};
  // Candidates that survived the reject filters, in service order, with a
  // flag saying whether their individual reservation succeeded.
  struct Candidate {
    std::size_t idx;
    bool reserved;
  };
  std::vector<Candidate> cands;

  for (std::size_t i = 0; i < pending.size(); ++i) {
    const PendingRequest& p = pending[i];
    if (p.request->deadline > 0 && now > p.request->deadline) {
      round.rejected.emplace_back(i, RequestStatus::kRejectedDeadline);
      continue;
    }
    if (!statically_feasible(p.footprint)) {
      round.rejected.emplace_back(i, RequestStatus::kRejectedInfeasible);
      continue;
    }
    if (p.defers >= policy_.max_defers) {
      round.rejected.emplace_back(i, RequestStatus::kRejectedCapacity);
      continue;
    }
    cands.push_back({i, ledger.try_reserve(p.footprint)});
  }

  // Only leftovers that have waited out joint_after_defers rounds (and any
  // cooldown from a previously failed batch) may pull their conflicting
  // singles into a batch.
  const auto rescuable = [&](const Candidate& c) {
    return !c.reserved &&
           pending[c.idx].defers >= policy_.joint_after_defers &&
           pending[c.idx].joint_cooldown == 0;
  };
  const bool any_rescuable =
      std::any_of(cands.begin(), cands.end(), rescuable);
  if (!joint || !any_rescuable) {
    for (const Candidate& c : cands) {
      (c.reserved ? round.singles : round.deferred).push_back(c.idx);
    }
    return round;
  }

  // Connect candidates that share footprint links — leftovers *and* the
  // singles they conflict with. A leftover's unavoidable load exceeds the
  // current headroom, so it can never be rescued by headroom scraps alone;
  // what can rescue it is a conflicting same-round neighbour whose
  // transition vacates the contested link. Pooling the neighbours'
  // reservations and planning the component jointly lets
  // schedule_flows_jointly order the vacater ahead of the enterer inside
  // one window.
  DisjointSets sets(cands.size());
  std::map<net::LinkId, std::size_t> first_user;
  for (std::size_t j = 0; j < cands.size(); ++j) {
    for (const auto& [link, _] : pending[cands[j].idx].footprint) {
      const auto [it, inserted] = first_user.emplace(link, j);
      if (!inserted) sets.unite(it->second, j);
    }
  }
  std::map<std::size_t, std::vector<std::size_t>> comps;  // root -> positions
  for (std::size_t j = 0; j < cands.size(); ++j) {
    comps[sets.find(j)].push_back(j);
  }

  const auto keep_individual = [&](const std::vector<std::size_t>& members) {
    for (const std::size_t j : members) {
      (cands[j].reserved ? round.singles : round.deferred)
          .push_back(cands[j].idx);
    }
  };

  for (const auto& [_, members] : comps) {
    const bool has_rescuable =
        std::any_of(members.begin(), members.end(),
                    [&](std::size_t j) { return rescuable(cands[j]); });
    // Components without an overdue leftover plan alone; singleton
    // leftovers have nobody to batch with and wait for in-flight releases;
    // oversized components fall back to individual treatment rather than
    // guessing a sub-batch.
    if (!has_rescuable || members.size() < 2 ||
        members.size() > policy_.max_joint_batch) {
      keep_individual(members);
      continue;
    }
    // Pool the member singles' reservations back into the headroom, then
    // reserve min(combined footprint, headroom) per touched link. The joint
    // plan is verified under exactly these capacities, so whatever
    // interleaving the scheduler finds is bounded by the reservation.
    for (const std::size_t j : members) {
      if (cands[j].reserved) ledger.release(pending[cands[j].idx].footprint);
    }
    Footprint combined;
    for (const std::size_t j : members) {
      for (const auto& [link, amount] : pending[cands[j].idx].footprint) {
        combined[link] += amount;
      }
    }
    Footprint reservation;
    bool starved = false;
    for (const auto& [link, amount] : combined) {
      const net::Capacity room = ledger.headroom(link);
      if (room <= net::Capacity{1e-9}) {
        starved = true;
        break;
      }
      reservation[link] = std::min(amount, room.as_demand());
    }
    // No joint plan can need less than the members' combined loads in the
    // shared start and end states, so a reservation that cannot carry those
    // is doomed before planning — typically because the blocking in-flight
    // release has not happened yet. Skip the attempt (and the cooldown it
    // would arm) and retry when capacity has turned over.
    if (!starved) {
      Footprint start, end;  // group-wide loads in the two boundary states
      for (const std::size_t j : members) {
        const UpdateRequest& r = *pending[cands[j].idx].request;
        for (const net::LinkId l : net::path_links(*base_, r.p_init)) {
          start[l] += r.demand;
        }
        for (const net::LinkId l : net::path_links(*base_, r.p_fin)) {
          end[l] += r.demand;
        }
      }
      for (const Footprint* state : {&start, &end}) {
        for (const auto& [link, need] : *state) {
          if (need > reservation[link] + net::Demand{1e-9}) {
            starved = true;
            break;
          }
        }
        if (starved) break;
      }
    }
    if (starved || !ledger.try_reserve(reservation)) {
      // Put the singles back exactly as they were and defer the leftovers.
      for (const std::size_t j : members) {
        if (cands[j].reserved &&
            !ledger.try_reserve(pending[cands[j].idx].footprint)) {
          throw std::logic_error("admission: cannot restore reservation");
        }
      }
      keep_individual(members);
      continue;
    }
    JointGroup group;
    group.reservation = std::move(reservation);
    for (const std::size_t j : members) group.members.push_back(cands[j].idx);
    round.groups.push_back(std::move(group));
  }
  return round;
}

}  // namespace chronus::service
