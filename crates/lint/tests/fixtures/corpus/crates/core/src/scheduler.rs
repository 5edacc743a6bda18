//! Fixture: one L008 violation of each kind, one annotated-clean twin of
//! each kind, and a function nothing calls — flagged all the same.
//!
//! This file is never compiled — it is lexed by the corpus test.

pub struct Scheduler {
    jobs: Vec<u32>,
}

impl Scheduler {
    /// The scheduler cycle; every function of the crate answers to L008.
    pub fn cycle(&mut self) {
        let j = self.pick();
        helper_panics(j as usize);
        self.indexed(0);
        self.expected();
        self.annotated_index(0);
        self.boundary();
    }

    fn pick(&self) -> u32 {
        // L008: unwrap, a finding wherever it stands.
        self.jobs.first().copied().unwrap()
    }

    fn indexed(&self, i: usize) -> u32 {
        // L008: slice index without a checked-indexing annotation.
        self.jobs[i]
    }

    fn expected(&self) -> u32 {
        // L008: expect without an expect-boundary annotation.
        self.jobs.first().copied().expect("non-empty")
    }

    // srclint: checked-indexing: fixture golden — i is always 0 here and
    // jobs is non-empty by construction.
    fn annotated_index(&self, i: usize) -> u32 {
        self.jobs[i]
    }

    // srclint: expect-boundary: fixture golden — the invariant holds by
    // construction.
    fn boundary(&self) -> u32 {
        self.jobs.first().copied().expect("non-empty")
    }
}

fn helper_panics(n: usize) {
    if n > 3 {
        // L008: panic!-family macro without an expect-boundary.
        panic!("fixture: reachable panic");
    }
}

fn never_called() {
    // L008: nothing calls this, and crate scope does not ask.
    unreachable!("fixture decoy");
}

#[cfg(test)]
mod tests {
    #[test]
    fn masked() {
        // An unwrap under #[cfg(test)] must not fire.
        let _ = Some(1).unwrap();
    }
}

/// Code *after* the test module is still analyzed: L008 must fire here.
pub fn post_test_mod(x: Option<u32>) -> u32 {
    x.unwrap()
}
