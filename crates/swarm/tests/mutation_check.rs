//! The mutation check as a test: with the lost-completion mutation
//! flipped on, the swarm's io-conservation oracle MUST fail — a pass
//! would mean the oracle is vacuous and the whole family is decorative.
//!
//! Compiled only under `--features mutation` (CI runs it as a dedicated
//! step; see DESIGN.md §12). The mutation switch is process-global, so
//! this file holds exactly one test.
#![cfg(feature = "mutation")]

use reflex_swarm::{run_seed, OracleFamily, RunConfig};

#[test]
fn lost_completion_mutation_is_caught() {
    reflex_dataplane::mutation::set_lost_completions(true);
    let cfg = RunConfig::default();
    // The sweep must catch the lost IOs within the CI seed budget.
    let mut caught = false;
    for seed in 0..20 {
        let outcome = run_seed(seed, &cfg);
        if outcome
            .violations
            .iter()
            .any(|v| v.family == OracleFamily::IoConservation)
        {
            caught = true;
            break;
        }
    }
    reflex_dataplane::mutation::set_lost_completions(false);
    assert!(
        caught,
        "lost-completion mutation survived 20 seeds — the io-conservation \
         oracle can no longer see a lost IO"
    );
}
