//! Fixture: the STRL text parser. No cycle parses text, so `L008` leaves
//! this file alone.

pub fn first_token(src: &str) -> &str {
    src.split_whitespace().next().unwrap()
}
