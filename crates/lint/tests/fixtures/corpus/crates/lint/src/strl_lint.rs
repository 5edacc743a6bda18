//! Fixture: `lint`'s STRL pass, which the audited cycle runs.

pub fn context(s: &str) -> &str {
    // L008: a string slice panics off a char boundary.
    &s[..93]
}
