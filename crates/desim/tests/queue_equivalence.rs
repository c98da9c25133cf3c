//! Differential property tests: the timing-wheel queue must be
//! operation-for-operation indistinguishable from the binary-heap queue.
//!
//! Both backends are driven with the same random program of pushes
//! (including simultaneous and far-future times), pops, clears, and
//! snapshot/restore at random cut points, asserting bitwise-equal
//! `(time, seq, event)` pop sequences and equal `next_seq` throughout.

use desim::{EventQueue, QueueKind, SimTime};
use proptest::prelude::*;

/// One step of a random queue program.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u64),
    Pop,
    Clear,
    SnapshotRestore,
}

/// Decodes a raw `(kind, small_time, big_time)` tuple into an [`Op`].
///
/// Push times mix a tiny range (forcing simultaneous events and FIFO
/// tie-breaking) with a huge range reaching far beyond the wheel's ~33 s
/// frame (forcing overflow-heap cascades).
fn decode(kind: u8, small: u64, big: u64) -> Op {
    match kind % 100 {
        0..=54 => Op::Push(if kind.is_multiple_of(2) { small } else { big }),
        55..=84 => Op::Pop,
        85..=89 => Op::Clear,
        _ => Op::SnapshotRestore,
    }
}

fn raw_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((0u8..=255, 0u64..50, 0u64..200_000_000), 1..400)
}

/// Runs the same program against both backends in lockstep, checking each
/// observable after every step.
fn run_lockstep(raw: &[(u8, u64, u64)]) -> Result<(), TestCaseError> {
    let mut heap: EventQueue<u32> = EventQueue::with_kind(QueueKind::Heap);
    let mut wheel: EventQueue<u32> = EventQueue::with_kind(QueueKind::Wheel);
    for (i, &(kind, small, big)) in raw.iter().enumerate() {
        #[allow(clippy::cast_possible_truncation)]
        let payload = i as u32;
        match decode(kind, small, big) {
            Op::Push(micros) => {
                let t = SimTime::from_micros(micros);
                heap.push(t, payload);
                wheel.push(t, payload);
            }
            Op::Pop => {
                let a = heap.pop();
                let b = wheel.pop();
                match (a, b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        prop_assert_eq!(
                            (x.time, x.seq, x.event),
                            (y.time, y.seq, y.event),
                            "pop diverged at step {}",
                            i
                        );
                    }
                    (a, b) => {
                        return Err(TestCaseError::fail(format!(
                            "pop presence diverged at step {i}: heap={a:?} wheel={b:?}"
                        )));
                    }
                }
            }
            Op::Clear => {
                heap.clear();
                wheel.clear();
            }
            Op::SnapshotRestore => {
                let hs = heap.snapshot_events();
                let ws = wheel.snapshot_events();
                prop_assert_eq!(&hs, &ws, "snapshots diverged at step {}", i);
                prop_assert_eq!(heap.next_seq(), wheel.next_seq());
                heap = EventQueue::from_snapshot_with(QueueKind::Heap, hs, heap.next_seq());
                wheel = EventQueue::from_snapshot_with(QueueKind::Wheel, ws, wheel.next_seq());
            }
        }
        prop_assert_eq!(heap.len(), wheel.len(), "len diverged at step {}", i);
        prop_assert_eq!(
            heap.peek_time(),
            wheel.peek_time(),
            "peek_time diverged at step {}",
            i
        );
        prop_assert_eq!(heap.next_seq(), wheel.next_seq());
    }
    // Drain whatever is left and compare the full tail sequence.
    loop {
        match (heap.pop(), wheel.pop()) {
            (None, None) => break,
            (Some(x), Some(y)) => {
                prop_assert_eq!((x.time, x.seq, x.event), (y.time, y.seq, y.event));
            }
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "tail drain diverged: heap={a:?} wheel={b:?}"
                )));
            }
        }
    }
    Ok(())
}

proptest! {
    /// The wheel pops a bitwise-identical `(time, seq, event)` sequence to
    /// the heap over arbitrary programs of pushes, pops, clears and
    /// snapshot/restores.
    #[test]
    fn wheel_matches_heap_over_random_programs(raw in raw_ops()) {
        run_lockstep(&raw)?;
    }

    /// Cross-backend restore: a snapshot taken on one backend and restored
    /// onto the other drains the identical sequence.
    #[test]
    fn cross_backend_restore_is_equivalent(
        times in proptest::collection::vec(0u64..100_000_000, 0..150),
        cut in 0usize..150,
    ) {
        let mut heap: EventQueue<u32> = EventQueue::with_kind(QueueKind::Heap);
        for (i, &t) in times.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            heap.push(SimTime::from_micros(t), i as u32);
        }
        // Pop a random prefix before snapshotting so the cut lands mid-drain.
        for _ in 0..cut.min(times.len() / 2) {
            heap.pop();
        }
        let next_seq = heap.next_seq();
        let events = heap.snapshot_events();
        let mut onto_wheel =
            EventQueue::from_snapshot_with(QueueKind::Wheel, events.clone(), next_seq);
        let mut onto_heap = EventQueue::from_snapshot_with(QueueKind::Heap, events, next_seq);
        prop_assert_eq!(onto_wheel.next_seq(), onto_heap.next_seq());
        loop {
            match (onto_heap.pop(), onto_wheel.pop()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    prop_assert_eq!((x.time, x.seq, x.event), (y.time, y.seq, y.event));
                }
                (a, b) => {
                    return Err(TestCaseError::fail(format!(
                        "cross-restore diverged: heap={a:?} wheel={b:?}"
                    )));
                }
            }
        }
    }

    /// A consuming snapshot equals the cloning snapshot on both backends.
    #[test]
    fn into_snapshot_matches_snapshot(
        times in proptest::collection::vec(0u64..100_000_000, 0..150),
    ) {
        for kind in [QueueKind::Heap, QueueKind::Wheel] {
            let mut q: EventQueue<u32> = EventQueue::with_kind(kind);
            for (i, &t) in times.iter().enumerate() {
                #[allow(clippy::cast_possible_truncation)]
                q.push(SimTime::from_micros(t), i as u32);
            }
            let cloned = q.snapshot_events();
            let consumed = q.into_snapshot_events();
            prop_assert_eq!(cloned, consumed);
        }
    }
}
