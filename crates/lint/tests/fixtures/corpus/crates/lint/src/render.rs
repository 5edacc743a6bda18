//! Fixture: a `lint` file no cycle runs, outside `L008`'s scope.

pub fn first(lines: &[String]) -> &str {
    &lines[0]
}
