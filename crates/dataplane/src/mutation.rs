//! Runtime switches for deliberately-wrong behaviour (mutation testing).
//!
//! Compiled in only with the `mutation-hooks` feature and **off by
//! default even then** — a build with the feature but no switch flipped
//! behaves identically to a build without it. The swarm runner
//! (`reflex-swarm --mutate`) flips [`set_lost_completions`] and then
//! asserts that its io-conservation oracle catches the lost IOs; a CI job
//! that passes with mutation enabled means the oracle is vacuous.

use std::sync::atomic::{AtomicU64, Ordering};

/// Every `LOST_EVERY`-th drained NVMe completion is discarded.
const LOST_EVERY: u64 = 64;

static ON: AtomicU64 = AtomicU64::new(0);
static DRAINED: AtomicU64 = AtomicU64::new(0);

/// Enables (or disables) the lost-completion mutation: a dataplane thread
/// silently discards one in every 64 NVMe completions it drains, sending
/// no response, so the IO is never completed, failed or retried.
pub fn set_lost_completions(on: bool) {
    DRAINED.store(0, Ordering::Relaxed);
    ON.store(u64::from(on), Ordering::Relaxed);
}

/// Whether the mutation discards the completion being drained now.
pub(crate) fn lose_completion() -> bool {
    ON.load(Ordering::Relaxed) != 0
        && DRAINED.fetch_add(1, Ordering::Relaxed) % LOST_EVERY == LOST_EVERY - 1
}
