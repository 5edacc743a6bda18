//! Fixture: STRL code the scheduler cycle runs, inside `L008`'s scope.

pub enum Expr {
    Leaf(u32),
    Max(Vec<Expr>),
}

pub fn leaf_k(e: &Expr) -> u32 {
    match e {
        Expr::Leaf(k) => *k,
        // L008: an abort in a guarded file, not vouched for.
        Expr::Max(_) => unreachable!("fixture: leaves only"),
    }
}
