//! Seeded violations: an allocation two call-graph hops from a hot path,
//! one growth call per line of a second helper, and one allocation behind
//! each form of module-qualified call (`pool::refill` in `src/pool.rs`,
//! `arena::grow_arena` in `src/arena/mod.rs`).

pub fn hot_loop(out: &mut Vec<u64>) {
    helper(out);
    grow(out);
    pool::refill(out);
    arena::grow_arena(out);
}

fn helper(out: &mut Vec<u64>) {
    out.push(1);
}

fn grow(out: &mut Vec<u64>) {
    out.reserve_exact(4);
    out.resize(8, 0);
    out.resize_with(9, Default::default);
    out.extend_from_slice(&[1, 2]);
}

pub fn cold_setup() -> Vec<u64> {
    // lint: allow(alloc, "fixture: construction runs once, off the hot path")
    Vec::with_capacity(8)
}
