//! The oracle the collective suites compare against. Every test input is
//! a pure function of the rank that contributes it, so each rank computes
//! the expected result of a collective by itself, sequentially, without
//! sending a message. Below the oracle, the one sweep both suites share.

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

/// The fold over ranks `0..=me`: scan at `me`. The chain folds left to
/// right as `fold` does, so even inexact floats must agree bit for bit.
pub fn prefix<T: Copy>(
    me: usize,
    contrib: impl Fn(usize) -> Vec<T>,
    op: impl Fn(T, T) -> T,
) -> Vec<T> {
    fold(me + 1, contrib, op)
}

/// The fold over ranks `0..me`, nothing at rank 0: exscan at `me`.
pub fn exclusive_prefix<T: Copy>(
    me: usize,
    contrib: impl Fn(usize) -> Vec<T>,
    op: impl Fn(T, T) -> T,
) -> Option<Vec<T>> {
    (me > 0).then(|| fold(me, contrib, op))
}

/// Block `me` of the fold: reduce_scatter_block at `me`.
pub fn block_of_fold<T: Copy>(
    n: usize,
    me: usize,
    block: usize,
    contrib: impl Fn(usize) -> Vec<T>,
    op: impl Fn(T, T) -> T,
) -> Vec<T> {
    fold(n, contrib, op)[me * block..(me + 1) * block].to_vec()
}

/// Rank `r`'s contribution cut to `r % 3` elements (so some are empty):
/// gatherv's variable lengths, `gathered` over this its result.
pub fn ragged<T>(r: usize, contrib: impl Fn(usize) -> Vec<T>) -> Vec<T> {
    let mut v = contrib(r);
    v.truncate(r % 3);
    v
}

/// Every rank's contribution in rank order: allgather, gather at the root.
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

/// The collectives that have a blocking entry point only — gather,
/// gatherv, scatter (at each of `roots`), scan, exscan,
/// reduce_scatter_block and, on a periodic ring over the whole
/// communicator, the neighbourhood pair — against the oracle above.
pub fn check_blocking_only(proc: &litempi_core::Process, len: usize, roots: &[usize]) {
    use litempi_core::{CartComm, Op};
    let world = proc.world();
    let (n, me) = (world.size(), world.rank());
    let ints = |r: usize| -> Vec<i64> { (0..len as i64).map(|i| r as i64 * 131 + i * 7).collect() };
    let add = |a: i64, b: i64| a + b;

    for &root in roots {
        let at_root = me == root;
        let got = world.gather(&ints(me), root).unwrap();
        assert_eq!(got, at_root.then(|| gathered(n, ints)), "gather to {root}");

        let rag = |r: usize| ragged(r, ints);
        let counts: Vec<usize> = (0..n).map(|r| rag(r).len()).collect();
        let got = world.gatherv(&rag(me), root).unwrap();
        let want = at_root.then(|| (gathered(n, rag), counts));
        assert_eq!(got, want, "gatherv to {root}");

        // The root deals rank `r` the block rank `root + r` would contribute.
        let dealt = at_root.then(|| gathered(n, |r| ints(root + r)));
        let got = world.scatter(dealt.as_deref(), len, root).unwrap();
        assert_eq!(got, ints(root + me), "scatter from {root}");
    }

    let got = world.scan(&ints(me), &Op::Sum).unwrap();
    assert_eq!(got, prefix(me, ints, add), "scan");
    let got = world.exscan(&ints(me), &Op::Sum).unwrap();
    assert_eq!(got, exclusive_prefix(me, ints, add), "exscan");
    // Inexact floats: the chain folds in rank order, which is the oracle's
    // order, so the bits are the oracle's — on every run.
    let inexact = |r: usize| -> Vec<f64> {
        (0..len)
            .map(|i| 0.1 * (r + 1) as f64 + i as f64 * 0.3)
            .collect()
    };
    let want = bits(&prefix(me, inexact, |a, b| a + b));
    for run in 0..2 {
        let got = world.scan(&inexact(me), &Op::Sum).unwrap();
        assert_eq!(bits(&got), want, "scan fp order diverged on run {run}");
    }
    let want = exclusive_prefix(me, inexact, |a, b| a + b).map(|v| bits(&v));
    let got = world.exscan(&inexact(me), &Op::Sum).unwrap();
    assert_eq!(got.map(|v| bits(&v)), want, "exscan fp order diverged");

    let wide = |r: usize| -> Vec<i64> { (0..n * len).map(|j| (r * 1000 + j) as i64).collect() };
    let got = world.reduce_scatter_block(&wide(me), &Op::Sum).unwrap();
    assert_eq!(got, block_of_fold(n, me, len, wide, add), "reduce_scatter");

    // A periodic ring: at two ranks both neighbours are the one peer, at
    // one rank they are this rank itself.
    let ring = CartComm::create(&world, &[n], &[true]).unwrap().unwrap();
    let (left, right) = ((me + n - 1) % n, (me + 1) % n);
    let (got, present) = ring.neighbor_allgather(&ints(me)).unwrap();
    assert_eq!(
        got,
        [ints(left), ints(right)].concat(),
        "neighbor_allgather"
    );
    assert_eq!(present, [true, true]);
    // Block 0 goes left, block 1 right: the left neighbour's right-bound
    // block arrives first, then the right neighbour's left-bound one.
    let bound = |r: usize| [ints(r), ints(r + 500)].concat();
    let (got, present) = ring.neighbor_alltoall(&bound(me), len).unwrap();
    assert_eq!(
        got,
        [ints(left + 500), ints(right)].concat(),
        "neighbor_alltoall"
    );
    assert_eq!(present, [true, true]);
}
