//! Fixture: a crate no panic rule guards. Under the retired call graph a
//! private helper's *name* (`run`, `priority`) could pull it into the
//! hot path; under crate scope what is checked is read off the path.

fn run(xs: &[u32]) -> u32 {
    xs[0]
}

pub fn cycle(xs: &[u32]) -> u32 {
    run(xs)
}
