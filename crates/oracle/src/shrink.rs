//! Delta-debugging minimizer for failing index arrays.
//!
//! When the campaign finds an array that diverges, the raw reproducer is
//! often thousands of elements (the long shapes span several
//! [`BLOCK_LEN`](subsub_rtcheck::BLOCK_LEN) summary blocks). Before an entry is
//! recorded — in a report or the regression corpus — we shrink it with a
//! ddmin-style loop: remove chunks, then single elements, then halve the
//! surviving values, keeping every transformation that still fails the
//! caller's predicate. The process is deterministic (no randomness), so
//! the same failure always shrinks to the same minimal form.

/// Shrinks `data` to a locally minimal array that still satisfies
/// `still_fails`. The input itself must fail; the result is guaranteed
/// to fail too.
pub fn shrink_array(data: &[usize], mut still_fails: impl FnMut(&[usize]) -> bool) -> Vec<usize> {
    debug_assert!(still_fails(data), "shrink input must reproduce");
    let mut cur = data.to_vec();

    // Phase 1: ddmin chunk removal. Start at half the array and refine.
    let mut chunk = (cur.len() / 2).max(1);
    while chunk >= 1 {
        let mut removed_any = false;
        let mut start = 0;
        while start < cur.len() && cur.len() > 1 {
            let end = (start + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - start));
            candidate.extend_from_slice(&cur[..start]);
            candidate.extend_from_slice(&cur[end..]);
            if !candidate.is_empty() && still_fails(&candidate) {
                cur = candidate;
                removed_any = true;
                // Re-test the same offset: the next chunk slid into it.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        chunk = if removed_any { chunk } else { chunk / 2 };
    }

    // Phase 2: halve surviving values toward zero, one at a time. This
    // pulls near-usize::MAX reproducers down to the smallest magnitude
    // that still triggers the failure.
    let mut progress = true;
    while progress {
        progress = false;
        for i in 0..cur.len() {
            while cur[i] > 0 {
                let old = cur[i];
                cur[i] = old / 2;
                if still_fails(&cur) {
                    progress = true;
                } else {
                    cur[i] = old;
                    break;
                }
            }
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinks_a_planted_violation_to_one_pair() {
        // Monotone ramp with a single inversion buried in the middle.
        let mut data: Vec<usize> = (0..10_000).collect();
        data[5_000] = 10;
        let fails = |d: &[usize]| d.windows(2).any(|w| w[0] > w[1]);
        let min = shrink_array(&data, fails);
        assert!(fails(&min), "shrunk array must still fail");
        assert!(min.len() <= 2, "expected a minimal pair, got {min:?}");
    }

    #[test]
    fn shrinks_values_toward_zero() {
        let data = vec![usize::MAX, usize::MAX - 1];
        let fails = |d: &[usize]| d.windows(2).any(|w| w[0] > w[1]);
        let min = shrink_array(&data, fails);
        assert!(
            min.iter().all(|&v| v <= 1),
            "values should halve down: {min:?}"
        );
    }

    #[test]
    fn preserves_failures_that_need_length() {
        // Failure requires at least 5 elements — shrink must not go below.
        let data: Vec<usize> = (0..100).collect();
        let fails = |d: &[usize]| d.len() >= 5;
        let min = shrink_array(&data, fails);
        assert_eq!(min.len(), 5);
    }

    #[test]
    fn deterministic() {
        let mut data: Vec<usize> = (0..9_000).collect();
        data[123] = 0;
        let fails = |d: &[usize]| d.windows(2).any(|w| w[0] > w[1]);
        let a = shrink_array(&data, fails);
        let b = shrink_array(&data, fails);
        assert_eq!(a, b);
    }
}
