//! RDL — the Reservation Definition Language of Rayon (paper Sec. 4.4).
//!
//! TetriSched consumes reservation requests written in a small subset of
//! Rayon's RDL: `Window(s, f, Atom(k, gang, dur))`. The `Atom` asks for a
//! gang of `k` containers for `dur` seconds; the `Window` bounds when that
//! allocation may happen. Container sizing is abstracted to whole node
//! slots, matching the simulator's node-granular resource model.

use crate::Time;

/// A gang resource request: `k` containers held together for `dur` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Atom {
    /// Number of containers (node slots).
    pub k: u32,
    /// Gang size: containers that must be allocated simultaneously. The
    /// paper's examples use `gang == k` (all-or-nothing gangs).
    pub gang: u32,
    /// Duration the gang is held, in seconds.
    pub dur: u64,
}

impl Atom {
    /// Creates an all-or-nothing gang atom (`gang == k`).
    pub fn gang(k: u32, dur: u64) -> Atom {
        Atom { k, gang: k, dur }
    }
}

/// A time-bounded reservation request: the atom must be placed within
/// `[start, finish]` (the allocation must *complete* by `finish`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Earliest allocation start.
    pub start: Time,
    /// Deadline: latest allocation end.
    pub finish: Time,
    /// The gang being reserved.
    pub atom: Atom,
}

impl Window {
    /// Creates a window around an atom.
    pub fn new(start: Time, finish: Time, atom: Atom) -> Window {
        Window {
            start,
            finish,
            atom,
        }
    }

    /// Latest start time at which the atom still completes by the deadline,
    /// or `None` when the window is too short for the atom's duration.
    pub fn latest_start(&self) -> Option<Time> {
        let end = self.start.checked_add(self.atom.dur)?;
        if end > self.finish {
            None
        } else {
            Some(self.finish - self.atom.dur)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_window() {
        // Sec. 4.4: Window(s=0, f=3, Atom(k=2, gang=2, dur=3)).
        let w = Window::new(0, 3, Atom::gang(2, 3));
        assert_eq!(w.latest_start(), Some(0));
    }

    #[test]
    fn latest_start_with_slack() {
        let w = Window::new(10, 40, Atom::gang(4, 20));
        assert_eq!(w.latest_start(), Some(20));
    }

    #[test]
    fn too_short_window() {
        let w = Window::new(0, 5, Atom::gang(1, 10));
        assert_eq!(w.latest_start(), None);
    }
}
