//! Reached from the hot path only as `pool::refill(…)`.

pub fn refill(out: &mut Vec<u64>) {
    out.extend(0..4);
}
