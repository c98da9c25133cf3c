//! Thread-local buffer pool backing the allocation-free hot path.
//!
//! Every [`crate::Matrix`](crate::Matrix) owns a `Vec<f64>`; when a matrix is
//! dropped its buffer is returned here instead of the allocator, and
//! `Matrix::zeros` (which every kernel's output path goes through) takes a
//! recycled buffer when one fits. After a warm-up step, forward/backward
//! passes and whole train steps therefore run without touching `malloc`.
//!
//! The pool is thread-local, so the `std::thread::scope` parallel regions
//! each warm their own pool and never contend on a lock. Capacity is bounded
//! (buffer count and per-buffer size) so pathological workloads degrade to
//! plain allocation instead of hoarding memory.

use std::cell::RefCell;

/// Maximum number of buffers retained per thread.
const MAX_POOLED_BUFFERS: usize = 64;
/// Buffers larger than this many elements (16 MiB of f64) are not retained.
const MAX_POOLED_LEN: usize = 2 * 1024 * 1024;
/// Requests up to this many elements may reuse any pooled buffer of at most
/// this capacity; larger requests only reuse buffers of at most twice their
/// length.
const SMALL_LEN: usize = 64;

thread_local! {
    static POOL: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// Returns a zeroed buffer of exactly `len` elements, reusing pooled capacity
/// when possible.
///
/// Reuse is bounded: a buffer more than twice the request (and larger than
/// [`SMALL_LEN`]) stays pooled. Capacity never shrinks and the pool is capped
/// by count, so without the bound one-row matrices (a one-lane rollout's
/// forwards) would take the minibatch-sized buffers a train step recycled,
/// and the retained set would ratchet toward `MAX_POOLED_BUFFERS` buffers of
/// the largest common size.
pub(crate) fn take_buffer(len: usize) -> Vec<f64> {
    let recycled = POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        // Best fit: the smallest pooled capacity that holds `len`, so big
        // buffers survive for the big products that need them.
        let mut best: Option<(usize, usize)> = None;
        for (idx, buf) in pool.iter().enumerate() {
            let cap = buf.capacity();
            let fits = cap >= len && cap <= (2 * len).max(SMALL_LEN);
            if fits && best.is_none_or(|(_, c)| cap < c) {
                best = Some((idx, cap));
            }
        }
        best.map(|(idx, _)| pool.swap_remove(idx))
    });
    match recycled {
        Some(mut buf) => {
            buf.clear();
            buf.resize(len, 0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// Returns a buffer to the pool (or frees it if the pool is full / the
/// buffer is oversized). Called from `Matrix`'s `Drop`.
pub(crate) fn recycle(buf: Vec<f64>) {
    if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_LEN {
        return;
    }
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < MAX_POOLED_BUFFERS {
            pool.push(buf);
        }
    });
}

/// Number of buffers currently pooled on this thread (diagnostics/tests).
#[cfg(test)]
pub(crate) fn pooled_count() -> usize {
    POOL.with(|pool| pool.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_exact_len() {
        recycle(vec![7.0; 100]);
        let buf = take_buffer(40);
        assert_eq!(buf.len(), 40);
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn recycle_then_take_reuses_capacity() {
        let mut seeded = Vec::with_capacity(1234);
        seeded.resize(1234, 1.0);
        let ptr = seeded.as_ptr();
        recycle(seeded);
        let buf = take_buffer(1000);
        // Best-fit may pick another pooled buffer in pathological test
        // interleavings, but capacity reuse must at least be possible.
        assert!(buf.capacity() >= 1000);
        let reused = std::ptr::eq(buf.as_ptr(), ptr);
        let _ = reused; // pointer identity is allocator-dependent; len is the contract
        assert_eq!(buf.len(), 1000);
    }

    #[test]
    fn small_requests_leave_much_larger_buffers_pooled() {
        recycle(vec![0.0; 4096]);
        let before = pooled_count();
        let small = take_buffer(4);
        assert!(small.capacity() < 4096);
        assert_eq!(pooled_count(), before);
        let big = take_buffer(3000);
        assert_eq!(big.capacity(), 4096);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let before = pooled_count();
        recycle(Vec::new());
        assert_eq!(pooled_count(), before);
    }
}
