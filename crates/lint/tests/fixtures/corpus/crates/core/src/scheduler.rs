//! Fixture: the test mask. A hash collection before the test module, one
//! inside it and one after it: L004 fires on the two outside only.
//!
//! This file is never compiled — it is lexed by the corpus test.

pub fn pick(jobs: &std::collections::HashMap<u32, u32>) -> usize {
    jobs.len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn masked() {
        // A hash map under #[cfg(test)] must not fire.
        let _ = std::collections::HashMap::<u32, u32>::new();
    }
}

/// Code *after* the test module is still analyzed: L004 must fire here.
pub fn post_test_mod(jobs: &std::collections::HashMap<u32, u32>) -> usize {
    jobs.len()
}
