//! Reservation admission control.

use std::collections::BTreeMap;

use tetrisched_strl::Window;

use crate::plan::CapacityPlan;
use crate::Time;

/// Identifier of an accepted reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReservationId(pub u64);

/// An accepted reservation: `k` containers guaranteed over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Reservation identity.
    pub id: ReservationId,
    /// Guaranteed container count.
    pub k: u32,
    /// Guaranteed window start.
    pub start: Time,
    /// Guaranteed window end (start + estimated duration).
    pub end: Time,
}

/// The admission-control frontend: accepts or rejects RDL windows against a
/// capacity plan, guaranteeing the plan never overcommits the cluster.
#[derive(Debug, Clone)]
pub struct ReservationSystem {
    capacity: u32,
    plan: CapacityPlan,
    live: BTreeMap<ReservationId, Reservation>,
    next_id: u64,
}

impl ReservationSystem {
    /// Creates a reservation system over `capacity` total containers.
    pub fn new(capacity: u32) -> Self {
        ReservationSystem {
            capacity,
            plan: CapacityPlan::new(),
            live: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Total cluster capacity the plan is checked against.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Read access to the underlying plan.
    pub fn plan(&self) -> &CapacityPlan {
        &self.plan
    }

    /// Attempts to admit an RDL window, committing capacity at the earliest
    /// feasible start within the window. Returns the accepted reservation,
    /// or `None` when no placement fits (the job proceeds as "SLO without
    /// reservation").
    ///
    /// `now` floors the search: reservations cannot start in the past.
    pub fn request(&mut self, window: &Window, now: Time) -> Option<Reservation> {
        let k = window.atom.k;
        let dur = window.atom.dur;
        if k == 0 || dur == 0 {
            return None;
        }
        if k > self.capacity {
            return None;
        }
        let earliest = window.start.max(now);
        let latest = window.latest_start()?;
        if earliest > latest {
            return None;
        }

        // Candidate starts: the earliest time, plus every plan breakpoint in
        // range (the level only changes at breakpoints, so the earliest
        // feasible start is among these).
        let mut candidates = vec![earliest];
        candidates.extend(
            self.plan
                .breakpoints(earliest, latest + 1)
                .into_iter()
                .filter(|&t| t > earliest),
        );
        for s in candidates {
            if s > latest {
                break;
            }
            if self.plan.max_level(s, s + dur) + k <= self.capacity {
                let id = ReservationId(self.next_id);
                self.next_id += 1;
                self.plan.add(s, s + dur, k);
                let r = Reservation {
                    id,
                    k,
                    start: s,
                    end: s + dur,
                };
                self.live.insert(id, r);
                return Some(r);
            }
        }
        None
    }

    /// Releases the *remaining* portion of a reservation from `from`
    /// onwards (a job finishing early frees its future capacity; the
    /// consumed prefix stays in the historical plan).
    pub fn release_from(&mut self, id: ReservationId, from: Time) -> bool {
        let Some(r) = self.live.remove(&id) else {
            return false;
        };
        let cut = from.clamp(r.start, r.end);
        self.plan.remove(cut, r.end, r.k);
        true
    }

    /// Drops a reservation entirely (used when the job never ran).
    pub fn cancel(&mut self, id: ReservationId) -> bool {
        let Some(r) = self.live.remove(&id) else {
            return false;
        };
        self.plan.remove(r.start, r.end, r.k);
        true
    }

    /// An accepted, still-live reservation.
    pub fn get(&self, id: ReservationId) -> Option<&Reservation> {
        self.live.get(&id)
    }

    /// Number of live reservations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Capacity committed at `t`.
    pub fn committed_at(&self, t: Time) -> u32 {
        self.plan.level_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrisched_strl::Atom;

    fn window(start: Time, finish: Time, k: u32, dur: u64) -> Window {
        Window::new(start, finish, Atom::gang(k, dur))
    }

    #[test]
    fn accepts_at_earliest_start() {
        let mut rs = ReservationSystem::new(10);
        let r = rs.request(&window(5, 50, 4, 10), 0).unwrap();
        assert_eq!(r.start, 5);
        assert_eq!(r.end, 15);
        assert_eq!(rs.committed_at(5), 4);
        assert_eq!(rs.committed_at(15), 0);
    }

    #[test]
    fn now_floors_the_start() {
        let mut rs = ReservationSystem::new(10);
        let r = rs.request(&window(0, 100, 2, 10), 42).unwrap();
        assert_eq!(r.start, 42);
    }

    #[test]
    fn defers_past_contention() {
        let mut rs = ReservationSystem::new(10);
        rs.request(&window(0, 20, 8, 20), 0).unwrap();
        // Only 2 free until t=20; a 4-wide request must wait.
        let r = rs.request(&window(0, 100, 4, 10), 0).unwrap();
        assert_eq!(r.start, 20);
    }

    #[test]
    fn rejects_when_window_too_tight() {
        let mut rs = ReservationSystem::new(10);
        rs.request(&window(0, 20, 8, 20), 0).unwrap();
        // Needs 4 nodes for 10s, must end by 25 => latest start 15 < 20.
        assert!(rs.request(&window(0, 25, 4, 10), 0).is_none());
        // But a 2-wide request fits alongside.
        assert!(rs.request(&window(0, 25, 2, 10), 0).is_some());
    }

    #[test]
    fn rejects_oversized_and_degenerate() {
        let mut rs = ReservationSystem::new(4);
        assert!(rs.request(&window(0, 100, 5, 10), 0).is_none());
        assert!(rs.request(&window(0, 100, 0, 10), 0).is_none());
        assert!(rs.request(&window(0, 100, 2, 0), 0).is_none());
        assert!(rs.request(&window(50, 40, 2, 10), 0).is_none());
    }

    #[test]
    fn release_from_frees_tail_capacity() {
        let mut rs = ReservationSystem::new(4);
        let r = rs.request(&window(0, 100, 4, 50), 0).unwrap();
        // Fully booked until 50; a second request waits.
        // Job finishes early at t=10: tail is released.
        assert!(rs.release_from(r.id, 10));
        let r2 = rs.request(&window(0, 100, 4, 10), 10).unwrap();
        assert_eq!(r2.start, 10);
        assert!(!rs.release_from(r.id, 20), "double release rejected");
    }

    #[test]
    fn cancel_restores_whole_window() {
        let mut rs = ReservationSystem::new(2);
        let r = rs.request(&window(10, 40, 2, 10), 0).unwrap();
        assert!(rs.cancel(r.id));
        assert_eq!(rs.committed_at(10), 0);
        assert_eq!(rs.live_count(), 0);
    }

    #[test]
    fn admission_never_overcommits() {
        let mut rs = ReservationSystem::new(6);
        let mut accepted = Vec::new();
        for i in 0..20 {
            if let Some(r) = rs.request(&window(0, 60, 2, 15), 0) {
                accepted.push(r);
            } else {
                // Every rejection must come after the plan saturates.
                assert!(i >= 3);
            }
        }
        for t in 0..120 {
            assert!(rs.committed_at(t) <= 6, "overcommit at {t}");
        }
        // 6 capacity / 2 wide = 3 concurrent; 60s window / 15s = 4 layers.
        assert_eq!(accepted.len(), 12);
    }

    #[test]
    fn estimated_duration_drives_the_plan() {
        // Admission books the *estimate*; an under-estimated job's
        // reservation simply ends early — the contention that causes is the
        // baseline behaviour the paper studies in Sec. 7.1.
        let mut rs = ReservationSystem::new(4);
        let r = rs.request(&window(0, 100, 4, 10), 0).unwrap();
        assert_eq!(r.end, 10);
        let r2 = rs.request(&window(0, 100, 4, 10), 0).unwrap();
        assert_eq!(r2.start, 10, "plan assumes the first job is done at 10");
    }
}
