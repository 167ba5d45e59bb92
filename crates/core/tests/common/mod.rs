//! The oracle the collective suites compare against. Every test input is
//! a pure function of the rank that contributes it, so each rank computes
//! the expected result of a collective by itself, sequentially, without
//! sending a message.

/// `contrib(0) ⊕ contrib(1) ⊕ … ⊕ contrib(n − 1)`, elementwise, left to
/// right: reduce / allreduce.
pub fn fold<T: Copy>(
    n: usize,
    contrib: impl Fn(usize) -> Vec<T>,
    op: impl Fn(T, T) -> T,
) -> Vec<T> {
    (1..n).fold(contrib(0), |acc, r| {
        acc.into_iter()
            .zip(contrib(r))
            .map(|(a, b)| op(a, b))
            .collect()
    })
}

/// Every rank's contribution in rank order: allgather.
pub fn gathered<T>(n: usize, contrib: impl Fn(usize) -> Vec<T>) -> Vec<T> {
    (0..n).flat_map(contrib).collect()
}

/// Block `me` of every rank's contribution in rank order: alltoall at `me`.
pub fn transposed<T: Clone>(
    n: usize,
    me: usize,
    block: usize,
    contrib: impl Fn(usize) -> Vec<T>,
) -> Vec<T> {
    (0..n)
        .flat_map(|r| contrib(r)[me * block..(me + 1) * block].to_vec())
        .collect()
}

/// Bit patterns, for comparing floats exactly.
pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}
