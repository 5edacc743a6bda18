//! Fixture: every banned needle, in trivia and literals only — the token
//! port must produce exactly ONE finding in this file (the real float
//! comparison at the bottom) and nothing for the needles.
//!
//! Doc-comment needles: a == 1.0, x != 0.5, xs.iter().sum::<f64>(),
//! xs.iter().product::<f64>(), ladder_rung = 3.

/* nested /* a == 1.0 d.ladder_rung = 3 */ xs.iter().sum::<f64>() */

pub fn needles() -> (&'static str, &'static str) {
    // d.ladder_rung = 3; a == 1.0; xs.iter().product::<f64>()
    let plain = "a == 1.0 and xs.iter().fold(0.0, |s, x| s + x)";
    let raw = r##"ladder_rung = 3; xs.iter().sum::<f64>(); a != 1.0"##;
    (plain, raw)
}

/// A real violation after the needles proves the port misses nothing.
pub fn real(a: f64) -> bool {
    a == 1.0
}
