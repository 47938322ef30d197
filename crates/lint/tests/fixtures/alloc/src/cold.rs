//! A free function named like `pool::refill` in another module: the
//! qualified call must not reach it.

pub fn refill(out: &mut Vec<u64>) {
    out.push(5);
}
