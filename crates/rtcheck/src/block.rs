//! Per-block summaries: the O(Δ) re-inspection substrate.
//!
//! A full inspection or fingerprint pass is O(n) no matter how small the
//! mutation that invalidated it. This module cuts an index array into
//! fixed [`BLOCK_LEN`]-element blocks and keeps one [`BlockSummary`] per
//! block — its boundary values, its interior monotonicity flags, the
//! absolute index of its first interior decrease, and a per-block
//! 32-lane FNV-1a fingerprint. From the summary vector alone the
//! whole-array verdict and the whole-array checksum recombine in
//! O(blocks): interior flags AND together in block order, the pairs
//! *joining* adjacent blocks are re-derived from the stored
//! `last`/`first` boundary values, and the block fingerprints fold (in
//! block order, seeded with the length) into the
//! `subsub-fingerprint/v3` content checksum.
//!
//! After a ranged mutation, only the blocks overlapping the dirty window
//! need rescanning — every join pair is recovered from boundary values
//! at combine time, so a single-element write into a 1 Mi-element array
//! costs one block rescan plus an O(blocks) recombine, not O(n).
//!
//! The summaries are maintained *by the trust boundary*: they are
//! rebuilt or patched on exactly the operations that bump the
//! write-version, so they describe the current contents precisely as
//! long as every writer goes through the boundary. A bypassing writer
//! leaves them stale — which is the same staleness the content checksum
//! catches, and why `verify()` recomputes from raw data before any
//! summary-derived verdict is trusted (see `validate.rs`). That
//! recompute is `verify_scan`: one allocation-free pass that reads
//! every element and no summary.

use crate::inspect::{scan_pairs, MonotoneVerdict};
use std::ops::Range;

/// Elements per summary block. 4 Ki elements × 8 bytes = 32 KiB — one
/// block rescan stays L1/L2-resident, while a 1 Mi-element array needs
/// only 256 summaries (~10 KiB) and an O(256) recombine.
pub const BLOCK_LEN: usize = 4096;

/// Version tag of the combined content checksum (`combine_fnv`):
/// `subsub-fingerprint/v3`, the per-block 32-lane FNV-1a scheme
/// (`block_fnv`). Rides along in service cache keys and snapshots so a
/// verdict fingerprinted under one scheme is never served under another.
pub const FINGERPRINT_VERSION: u8 = 3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Independent FNV-1a lanes per block fingerprint. Part of the v3
/// scheme's definition, not a tuning knob: changing it changes every
/// fingerprint.
const LANES: usize = 32;

/// The `subsub-fingerprint/v3` block fingerprint. Lane `l` folds the
/// elements `l, l + 32, l + 64, …` word by word with FNV-1a; at the block
/// end the 32 lane states fold in lane order into one value, seeded with
/// the block length ([`combine_fnv`] again). The lanes are independent
/// multiply chains, so the loop vectorizes (one packed 64-bit multiply
/// per 8 lanes with AVX-512) instead of waiting on one serial chain.
///
/// Every step `h ↦ (h ^ v) · prime` is a bijection in both `h` and `v`
/// (the prime is odd), so changing any single word always changes its
/// lane's final state and hence the block value — detection of a
/// single-word change is certain, not probabilistic.
///
/// Work Θ(b), Span Θ(b) for a block of `b` elements (serial); the
/// longest dependent multiply chain is ⌈b/32⌉ + 32 long.
fn block_fnv(block: &[usize]) -> u64 {
    let mut lanes = [FNV_OFFSET; LANES];
    let mut rows = block.chunks_exact(LANES);
    for row in &mut rows {
        for (h, &v) in lanes.iter_mut().zip(row) {
            *h = (*h ^ v as u64).wrapping_mul(FNV_PRIME);
        }
    }
    for (h, &v) in lanes.iter_mut().zip(rows.remainder()) {
        *h = (*h ^ v as u64).wrapping_mul(FNV_PRIME);
    }
    combine_fnv(block.len(), lanes.into_iter())
}

/// The `subsub-fingerprint/v3` combining rule: fold the parts in order,
/// seeded with the element count. Used twice — lanes into a block value
/// and blocks into the array checksum. Order sensitivity comes from the
/// fold, length sensitivity from the seed — so the combined value is
/// well-defined given only (length, block fingerprints) and recomputes
/// in O(blocks) after any block rescan.
fn combine_fnv(len: usize, parts: impl Iterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET ^ (len as u64);
    for f in parts {
        h = (h ^ f).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The tamper gate's fused pass over raw data: per [`BLOCK_LEN`] window,
/// the domain scan and the block fingerprint run back to back while the
/// window is L1-resident, and the block values fold into the combined
/// checksum. Returns that checksum (equal to
/// [`BlockSummaries::checksum`] of a fresh build) and the first index
/// whose entry is `>= domain`. Reads every element; consults no stored
/// summary.
///
/// Work Θ(n), Span Θ(n), no allocation.
pub(crate) fn verify_scan(data: &[usize], domain: usize) -> (u64, Option<usize>) {
    let mut first_bad = None;
    let block_fnvs = data.chunks(BLOCK_LEN).enumerate().map(|(k, block)| {
        if first_bad.is_none() {
            first_bad = first_out_of_domain(block, domain).map(|rel| k * BLOCK_LEN + rel);
        }
        block_fnv(block)
    });
    let checksum = combine_fnv(data.len(), block_fnvs);
    (checksum, first_bad)
}

/// What one block contributes to the whole-array verdict and checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSummary {
    /// First element of the block (join pair with the previous block).
    pub first: usize,
    /// Last element of the block (join pair with the next block).
    pub last: usize,
    /// No adjacent pair *inside* the block decreases.
    pub nonstrict: bool,
    /// Every adjacent pair inside the block strictly increases.
    pub strict: bool,
    /// Absolute index of the first interior decrease, if any.
    pub first_violation: Option<usize>,
    /// Per-block FNV-1a fingerprint ([`FINGERPRINT_VERSION`] scheme).
    pub fnv: u64,
}

fn summarize(block_start: usize, block: &[usize]) -> BlockSummary {
    let ps = scan_pairs(block);
    BlockSummary {
        first: block.first().copied().unwrap_or(0),
        last: block.last().copied().unwrap_or(0),
        nonstrict: ps.nonstrict,
        strict: ps.strict,
        first_violation: ps.first_violation.map(|i| block_start + i),
        fnv: block_fnv(block),
    }
}

/// Wide out-of-domain scan: smallest index with `data[i] >= domain`.
/// Same stride/accumulate/positioned-second-pass shape as
/// [`scan_pairs`], so the domain half of ingestion runs at the same
/// autovectorized throughput as the monotonicity half.
pub fn first_out_of_domain(data: &[usize], domain: usize) -> Option<usize> {
    const STRIDE: usize = 512;
    let mut pos = 0usize;
    while pos < data.len() {
        let end = (pos + STRIDE).min(data.len());
        let s = &data[pos..end];
        // Plain reduction loop: one packed unsigned compare per vector of
        // elements once vectorized (requires `target-cpu=native`; see
        // `.cargo/config.toml`). A manually unrolled inner loop defeats
        // the loop vectorizer, so keep this shape boring.
        let mut bad = false;
        for x in s {
            bad |= *x >= domain;
        }
        if bad {
            for (k, x) in s.iter().enumerate() {
                if *x >= domain {
                    return Some(pos + k);
                }
            }
        }
        pos = end;
    }
    None
}

/// The per-block summary vector of one array, kept in lockstep with the
/// contents by the trust boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSummaries {
    blocks: Vec<BlockSummary>,
    len: usize,
}

impl BlockSummaries {
    /// Builds summaries for `data`, validating every entry against
    /// `domain` in the same pass — the fused single-pass ingest core.
    /// Per block: one wide domain scan, one wide pair scan, one
    /// fingerprint fold, all over an L1-resident 32 KiB window, so the
    /// data crosses the memory bus once. On an out-of-domain entry the
    /// *first offending absolute index* is returned (identical location
    /// semantics to the old two-pass `scan_domain`).
    pub fn build(data: &[usize], domain: usize) -> Result<BlockSummaries, usize> {
        let mut blocks = Vec::with_capacity(data.len().div_ceil(BLOCK_LEN));
        for (k, block) in data.chunks(BLOCK_LEN).enumerate() {
            let start = k * BLOCK_LEN;
            if let Some(rel) = first_out_of_domain(block, domain) {
                return Err(start + rel);
            }
            blocks.push(summarize(start, block));
        }
        Ok(BlockSummaries {
            blocks,
            len: data.len(),
        })
    }

    /// Builds summaries without domain validation — the `verify()`
    /// recompute path, where the domain is checked separately so a
    /// checksum mismatch can be reported first.
    pub fn build_unchecked(data: &[usize]) -> BlockSummaries {
        let mut blocks = Vec::with_capacity(data.len().div_ceil(BLOCK_LEN));
        for (k, block) in data.chunks(BLOCK_LEN).enumerate() {
            blocks.push(summarize(k * BLOCK_LEN, block));
        }
        BlockSummaries {
            blocks,
            len: data.len(),
        }
    }

    /// Number of summarized elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the summarized array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The summary rows, in block order.
    pub fn blocks(&self) -> &[BlockSummary] {
        &self.blocks
    }

    /// Rescans exactly the blocks overlapping `dirty` (a half-open
    /// element range) against the current `data`, whose length must be
    /// unchanged since the summaries were built. Join pairs need no
    /// rescan: they are re-derived from the refreshed `first`/`last`
    /// boundary values at combine time.
    ///
    /// Work Θ(Δ + BLOCK_LEN) for a dirty window of Δ elements (every
    /// touched block is rescanned whole), Span Θ(Δ + BLOCK_LEN).
    pub fn rescan(&mut self, data: &[usize], dirty: Range<usize>) {
        debug_assert_eq!(data.len(), self.len, "rescan cannot change length");
        if dirty.start >= dirty.end {
            return;
        }
        let first_block = dirty.start / BLOCK_LEN;
        let last_block = (dirty.end - 1) / BLOCK_LEN;
        for k in first_block..=last_block.min(self.blocks.len().saturating_sub(1)) {
            let start = k * BLOCK_LEN;
            let end = (start + BLOCK_LEN).min(data.len());
            self.blocks[k] = summarize(start, &data[start..end]);
        }
    }

    /// The `subsub-fingerprint/v3` combined content checksum, from the
    /// stored block fingerprints.
    ///
    /// Work Θ(n/BLOCK_LEN), Span Θ(n/BLOCK_LEN).
    pub fn checksum(&self) -> u64 {
        combine_fnv(self.len, self.blocks.iter().map(|b| b.fnv))
    }

    /// The first block whose fingerprint over `data` differs from its
    /// stored one, if any — which block an out-of-band writer touched.
    /// A diagnostic label for a checksum mismatch the tamper gate has
    /// already decided from raw data; it never decides anything itself.
    ///
    /// Work O(n), Span O(n); stops at the first drifted block.
    pub(crate) fn first_drifted_block(&self, data: &[usize]) -> Option<usize> {
        data.chunks(BLOCK_LEN)
            .zip(&self.blocks)
            .position(|(block, s)| block_fnv(block) != s.fnv)
    }

    /// Derives the whole-array verdict from the summaries, O(blocks).
    ///
    /// Blocks are walked in order; for block `k > 0` the join pair
    /// (`blocks[k-1].last` vs `blocks[k].first`, at absolute index
    /// `k * BLOCK_LEN`) is checked *before* block `k`'s interior (whose
    /// first violation is at index ≥ `k * BLOCK_LEN + 1`), so the first
    /// violation reported is the globally first one — bit-identical to
    /// [`crate::inspect_serial`] on the same contents.
    pub fn verdict(&self) -> MonotoneVerdict {
        let mut eq = false;
        let mut first_violation = None;
        'walk: for (k, s) in self.blocks.iter().enumerate() {
            if k > 0 {
                let prev_last = self.blocks[k - 1].last;
                if prev_last > s.first {
                    first_violation = Some(k * BLOCK_LEN);
                    break 'walk;
                }
                if prev_last == s.first {
                    eq = true;
                }
            }
            if !s.nonstrict {
                first_violation = s.first_violation;
                break 'walk;
            }
            if !s.strict {
                eq = true;
            }
        }
        MonotoneVerdict {
            nonstrict: first_violation.is_none(),
            strict: first_violation.is_none() && !eq,
            first_violation,
            len: self.len,
        }
    }

    /// Derives the *block-monotone* verdict — "monotone within blocks of
    /// `b` elements", pairs at multiples of `b` exempt — in O(blocks),
    /// recombining the same maintained summaries as
    /// [`BlockSummaries::verdict`]. Identical to
    /// [`crate::inspect::inspect_block_monotone`] on the current
    /// contents.
    ///
    /// Only possible from summaries when `b` is a positive multiple of
    /// [`BLOCK_LEN`]: then every exempt pair lands exactly on a summary
    /// join (whose comparison is re-derived from boundary values and can
    /// be skipped), while block interiors always count. Other block
    /// sizes return `None` — callers fall back to the O(n) scan.
    pub fn block_verdict(&self, b: usize) -> Option<MonotoneVerdict> {
        if b == 0 || !b.is_multiple_of(BLOCK_LEN) {
            return None;
        }
        let mut eq = false;
        let mut first_violation = None;
        'walk: for (k, s) in self.blocks.iter().enumerate() {
            let join = k * BLOCK_LEN;
            if k > 0 && !join.is_multiple_of(b) {
                let prev_last = self.blocks[k - 1].last;
                if prev_last > s.first {
                    first_violation = Some(join);
                    break 'walk;
                }
                if prev_last == s.first {
                    eq = true;
                }
            }
            if !s.nonstrict {
                first_violation = s.first_violation;
                break 'walk;
            }
            if !s.strict {
                eq = true;
            }
        }
        Some(MonotoneVerdict {
            nonstrict: first_violation.is_none(),
            strict: first_violation.is_none() && !eq,
            first_violation,
            len: self.len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspect::inspect_serial;

    // Verdict/checksum tests don't care about domain membership (and a
    // few use `usize::MAX`, which no exclusive bound admits), so build
    // without domain validation; `build` is identical plus the scan.
    fn checked(data: &[usize]) -> BlockSummaries {
        BlockSummaries::build_unchecked(data)
    }

    #[test]
    fn verdict_matches_serial_on_small_shapes() {
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![7],
            vec![0, 1, 2, 5, 9],
            vec![0, 1, 1, 2],
            vec![0, 3, 2],
            vec![7; 17],
            vec![usize::MAX - 1, usize::MAX],
            vec![usize::MAX, 0],
        ];
        for data in &cases {
            assert_eq!(checked(data).verdict(), inspect_serial(data), "{data:?}");
        }
    }

    #[test]
    fn verdict_matches_serial_across_block_boundaries() {
        let n = BLOCK_LEN * 3 + 100;
        let ramp: Vec<usize> = (0..n).collect();
        assert_eq!(checked(&ramp).verdict(), inspect_serial(&ramp));
        // Violation exactly on a block join (first element of block 1).
        let mut joined = ramp.clone();
        joined[BLOCK_LEN] = 0;
        let v = checked(&joined).verdict();
        assert_eq!(v, inspect_serial(&joined));
        assert_eq!(v.first_violation, Some(BLOCK_LEN));
        // Plateau on a block join: non-strict only.
        let mut plateau = ramp.clone();
        plateau[BLOCK_LEN * 2] = plateau[BLOCK_LEN * 2 - 1];
        let v = checked(&plateau).verdict();
        assert_eq!(v, inspect_serial(&plateau));
        assert!(v.nonstrict && !v.strict);
        // Interior violation deep inside a later block.
        let mut broken = ramp.clone();
        broken[BLOCK_LEN + 77] = 3;
        assert_eq!(checked(&broken).verdict(), inspect_serial(&broken));
    }

    #[test]
    fn earliest_violation_wins_across_join_and_interior() {
        // Both a join violation and a later interior one: the join (the
        // globally first) must be reported, matching the serial scan.
        let n = BLOCK_LEN * 2;
        let mut data: Vec<usize> = (0..n).collect();
        data[BLOCK_LEN] = 0; // join violation at BLOCK_LEN
        data[BLOCK_LEN + 500] = 1; // interior violation later
        let v = checked(&data).verdict();
        assert_eq!(v.first_violation, Some(BLOCK_LEN));
        assert_eq!(v, inspect_serial(&data));
    }

    #[test]
    fn rescan_tracks_mutations_exactly() {
        let n = BLOCK_LEN * 4;
        let mut data: Vec<usize> = (0..n).collect();
        let mut s = checked(&data);
        // Break monotonicity inside block 2, rescan just that window.
        data[BLOCK_LEN * 2 + 9] = 0;
        s.rescan(&data, BLOCK_LEN * 2 + 9..BLOCK_LEN * 2 + 10);
        assert_eq!(s.verdict(), inspect_serial(&data));
        assert_eq!(s.checksum(), checked(&data).checksum());
        // Heal it again; the summaries must converge back.
        data[BLOCK_LEN * 2 + 9] = BLOCK_LEN * 2 + 9;
        s.rescan(&data, BLOCK_LEN * 2 + 9..BLOCK_LEN * 2 + 10);
        assert_eq!(s, checked(&data));
    }

    #[test]
    fn rescan_window_straddling_blocks_refreshes_both() {
        let n = BLOCK_LEN * 2 + 10;
        let mut data: Vec<usize> = (0..n).map(|i| i * 2).collect();
        let mut s = checked(&data);
        // Dirty window straddles the block 0 / block 1 join.
        let lo = BLOCK_LEN - 3;
        let hi = BLOCK_LEN + 3;
        for (off, v) in data[lo..hi].iter_mut().enumerate() {
            *v = (lo + off) * 2 + 1;
        }
        s.rescan(&data, lo..hi);
        assert_eq!(s, checked(&data));
        assert_eq!(s.verdict(), inspect_serial(&data));
    }

    #[test]
    fn fused_domain_scan_reports_first_offender() {
        let mut data: Vec<usize> = (0..BLOCK_LEN + 50).collect();
        data[BLOCK_LEN + 7] = usize::MAX;
        data[BLOCK_LEN + 30] = usize::MAX; // later offender must not win
        assert_eq!(
            BlockSummaries::build(&data, BLOCK_LEN + 50),
            Err(BLOCK_LEN + 7)
        );
        assert_eq!(
            first_out_of_domain(&data, BLOCK_LEN + 50),
            Some(BLOCK_LEN + 7)
        );
        assert_eq!(first_out_of_domain(&[0, 1, 2], 3), None);
        assert_eq!(first_out_of_domain(&[0, 1, 3], 3), Some(2));
        assert_eq!(first_out_of_domain(&[], 0), None);
        // Boundary semantics: `domain` itself is out, `domain - 1` is in.
        assert_eq!(first_out_of_domain(&[9], 10), None);
        assert_eq!(first_out_of_domain(&[10], 10), Some(0));
    }

    #[test]
    fn checksum_is_length_and_content_sensitive() {
        let c = |d: &[usize]| BlockSummaries::build_unchecked(d).checksum();
        assert_ne!(c(&[0, 1]), c(&[0, 1, 0]));
        assert_ne!(c(&[0, 1]), c(&[1, 0]));
        assert_eq!(c(&[7, 8, 9]), c(&[7, 8, 9]));
        assert_ne!(c(&[]), c(&[0]));
        // A flip in a non-final block must still move the combined value.
        let big: Vec<usize> = (0..BLOCK_LEN * 3).collect();
        let mut flipped = big.clone();
        flipped[5] ^= 1;
        assert_ne!(c(&big), c(&flipped));
    }

    #[test]
    fn incremental_checksum_equals_full_rebuild() {
        let n = BLOCK_LEN * 3 + 17;
        let mut data: Vec<usize> = (0..n).collect();
        let mut s = checked(&data);
        for (at, v) in [(0usize, 5usize), (n - 1, 0), (BLOCK_LEN, 1), (n / 2, 9)] {
            data[at] = v;
            s.rescan(&data, at..at + 1);
            assert_eq!(
                s.checksum(),
                BlockSummaries::build_unchecked(&data).checksum()
            );
        }
    }

    /// Block lengths around every lane and block edge of the v3 scheme.
    const EDGE_LENS: [usize; 7] = [1, 31, 32, 33, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1];

    #[test]
    fn fused_scan_checksum_equals_summary_checksum() {
        for n in [0, 3 * BLOCK_LEN + 17].into_iter().chain(EDGE_LENS) {
            let data: Vec<usize> = (0..n).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
            assert_eq!(
                verify_scan(&data, usize::MAX),
                (checked(&data).checksum(), None),
                "n = {n}"
            );
        }
    }

    #[test]
    fn v3_detects_every_single_word_change() {
        // Every position: each lane of every full row of 32, and every
        // slot of the remainder tail. Detection is certain (each FNV
        // step is a bijection), so no position may ever collide.
        for n in EDGE_LENS {
            let data: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
            let base = verify_scan(&data, usize::MAX).0;
            let mut changed = data.clone();
            for i in 0..n {
                changed[i] ^= 1 << (i % 64);
                assert_ne!(
                    verify_scan(&changed, usize::MAX).0,
                    base,
                    "n = {n}, i = {i}"
                );
                changed[i] = data[i];
            }
        }
    }

    #[test]
    fn v3_detects_a_swap_within_one_lane() {
        for n in EDGE_LENS.into_iter().filter(|&n| n > LANES) {
            let block: Vec<usize> = (0..n.min(BLOCK_LEN)).collect();
            let base = block_fnv(&block);
            for l in [0, 1, LANES - 1]
                .into_iter()
                .filter(|l| l + LANES < block.len())
            {
                // Same lane: the next row, and the lane's last row.
                let last = l + LANES * ((block.len() - 1 - l) / LANES);
                for other in [l + LANES, last] {
                    let mut swapped = block.clone();
                    swapped.swap(l, other);
                    assert_ne!(block_fnv(&swapped), base, "n = {n}, swap {l} <-> {other}");
                }
            }
        }
    }

    #[test]
    fn v3_separates_zero_arrays_whose_lengths_differ_by_a_lane_row() {
        // Zero runs differ only in how many zeros each lane folded and
        // in the length seeds; together they must tell them apart.
        for n in [0, 1, 32, 33, BLOCK_LEN - LANES, BLOCK_LEN, 2 * BLOCK_LEN] {
            let short = vec![0usize; n];
            let long = vec![0usize; n + LANES];
            assert_ne!(verify_scan(&short, 1).0, verify_scan(&long, 1).0, "n = {n}");
            if n + LANES <= BLOCK_LEN {
                assert_ne!(block_fnv(&short), block_fnv(&long), "block, n = {n}");
            }
        }
    }

    #[test]
    fn drifted_block_is_the_first_changed_one() {
        let n = BLOCK_LEN * 3 + 5;
        let data: Vec<usize> = (0..n).collect();
        let s = checked(&data);
        assert_eq!(s.first_drifted_block(&data), None);
        for (at, block) in [(0, 0), (BLOCK_LEN - 1, 0), (BLOCK_LEN, 1), (n - 1, 3)] {
            let mut tampered = data.clone();
            tampered[at] += 1;
            assert_eq!(s.first_drifted_block(&tampered), Some(block), "at {at}");
        }
        // Two drifted blocks: the earlier one is named.
        let mut tampered = data.clone();
        tampered[2 * BLOCK_LEN + 3] = 0;
        tampered[BLOCK_LEN + 9] = 0;
        assert_eq!(s.first_drifted_block(&tampered), Some(1));
    }

    #[test]
    fn fused_scan_reports_the_first_offender_across_blocks() {
        let n = BLOCK_LEN * 3 + 40;
        let domain = n;
        let ramp: Vec<usize> = (0..n).collect();
        for offenders in [
            vec![0],
            vec![BLOCK_LEN - 1, 2 * BLOCK_LEN],
            vec![BLOCK_LEN],
            vec![2 * BLOCK_LEN + 7, n - 1],
            vec![n - 1],
        ] {
            let mut data = ramp.clone();
            for &i in &offenders {
                data[i] = domain + i;
            }
            let (_, first_bad) = verify_scan(&data, domain);
            assert_eq!(
                first_bad,
                first_out_of_domain(&data, domain),
                "{offenders:?}"
            );
            assert_eq!(first_bad, Some(offenders[0]));
        }
        assert_eq!(verify_scan(&ramp, domain).1, None);
    }

    #[test]
    fn block_verdict_matches_ground_truth_scan() {
        use crate::inspect::inspect_block_monotone;
        let b = BLOCK_LEN;
        // Periodic ramp restarting every b elements: block-monotone
        // (strict) but globally non-monotone.
        let n = b * 3 + 100;
        let periodic: Vec<usize> = (0..n).map(|i| i % b).collect();
        let v = checked(&periodic).block_verdict(b).unwrap();
        assert_eq!(v, inspect_block_monotone(&periodic, b));
        assert!(v.strict, "{v:?}");
        assert!(!checked(&periodic).verdict().nonstrict);
        // A within-block decrease is a violation with the right index.
        let mut broken = periodic.clone();
        broken[b + 77] = 0;
        let v = checked(&broken).block_verdict(b).unwrap();
        assert_eq!(v, inspect_block_monotone(&broken, b));
        assert_eq!(v.first_violation, Some(b + 77));
        // A plateau inside a block demotes strict to non-strict.
        let mut plateau = periodic.clone();
        plateau[b * 2 + 5] = plateau[b * 2 + 4];
        let v = checked(&plateau).block_verdict(b).unwrap();
        assert_eq!(v, inspect_block_monotone(&plateau, b));
        assert!(v.nonstrict && !v.strict);
    }

    #[test]
    fn block_verdict_counts_interior_joins_of_large_blocks() {
        // b = 2 * BLOCK_LEN: the join at BLOCK_LEN is *interior* to the
        // logical block and must count; the join at 2 * BLOCK_LEN is a
        // period boundary and must be exempt.
        use crate::inspect::inspect_block_monotone;
        let b = BLOCK_LEN * 2;
        let n = b * 2;
        let periodic: Vec<usize> = (0..n).map(|i| i % b).collect();
        let v = checked(&periodic).block_verdict(b).unwrap();
        assert_eq!(v, inspect_block_monotone(&periodic, b));
        assert!(v.strict);
        // Decrease exactly at an interior summary join (index BLOCK_LEN).
        let mut broken = periodic.clone();
        broken[BLOCK_LEN] = 0;
        let v = checked(&broken).block_verdict(b).unwrap();
        assert_eq!(v, inspect_block_monotone(&broken, b));
        assert_eq!(v.first_violation, Some(BLOCK_LEN));
    }

    #[test]
    fn block_verdict_rejects_unaligned_sizes_and_degenerates() {
        use crate::inspect::{inspect_block_monotone, inspect_serial};
        let data: Vec<usize> = (0..BLOCK_LEN + 9).map(|i| i % 7).collect();
        let s = checked(&data);
        assert!(s.block_verdict(0).is_none());
        assert!(s.block_verdict(7).is_none());
        assert!(s.block_verdict(BLOCK_LEN + 1).is_none());
        // The O(n) scan handles unaligned sizes and the b = 0 degenerate.
        assert!(inspect_block_monotone(&data, 7).strict);
        assert_eq!(inspect_block_monotone(&data, 0), inspect_serial(&data));
        // b beyond the length: one block, equals the plain verdict.
        let ramp: Vec<usize> = (0..100).collect();
        assert_eq!(inspect_block_monotone(&ramp, 4096), inspect_serial(&ramp));
    }

    #[test]
    fn max_adjacent_values_do_not_wrap() {
        let data = [usize::MAX - 2, usize::MAX - 1, usize::MAX];
        let s = checked(&data);
        assert!(s.verdict().strict);
        let data = [usize::MAX, usize::MAX];
        let v = checked(&data).verdict();
        assert!(v.nonstrict && !v.strict);
    }

    #[test]
    fn property_random_mutations_match_serial() {
        // Seeded xorshift walk: after every single-element mutation the
        // summary-derived verdict and checksum must equal a from-scratch
        // rebuild and the serial inspector.
        let n = BLOCK_LEN * 2 + 333;
        let mut data: Vec<usize> = (0..n).collect();
        let mut s = checked(&data);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = (x as usize) % n;
            let val = ((x >> 32) as usize) % (2 * n);
            data[at] = val;
            s.rescan(&data, at..at + 1);
            assert_eq!(s.verdict(), inspect_serial(&data));
            assert_eq!(
                s.checksum(),
                BlockSummaries::build_unchecked(&data).checksum()
            );
        }
    }
}
