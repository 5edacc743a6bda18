//! Fixture: the test mask. A float comparison before the test module, one
//! inside it and one after it: L009 fires on the two outside only.
//!
//! This file is never compiled — it is lexed by the corpus test.

pub fn pick(load: f64) -> bool { load == 0.5 }

// Nothing between `pick` and the test module fires.

#[cfg(test)]
mod tests {
    #[test]
    fn masked() {
        // A float comparison under #[cfg(test)] must not fire.
        assert!(1.5 == 1.5);
    }
}

/// Code *after* the test module is still analyzed: L009 must fire here.
pub fn post_test_mod(load: f64) -> bool { load != 0.5 }
