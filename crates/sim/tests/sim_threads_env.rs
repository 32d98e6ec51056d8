//! `ALPAKA_SIM_THREADS` overrides a launch's configured interpreter thread
//! count. The test sets the process environment, so it has a binary of its
//! own: no other test can resolve a thread count while it does.

use alpaka_sim::resolve_sim_threads;

#[test]
fn env_var_override_of_one_matches_serial() {
    // This is the only test in this binary that touches the process
    // environment; everything else passes thread counts explicitly.
    std::env::set_var("ALPAKA_SIM_THREADS", "1");
    assert_eq!(resolve_sim_threads(8), 1);
    std::env::set_var("ALPAKA_SIM_THREADS", "6");
    assert_eq!(resolve_sim_threads(1), 6);
    std::env::set_var("ALPAKA_SIM_THREADS", "not-a-number");
    assert_eq!(resolve_sim_threads(3), 3);
    std::env::set_var("ALPAKA_SIM_THREADS", "0");
    assert_eq!(resolve_sim_threads(3), 3);
    std::env::remove_var("ALPAKA_SIM_THREADS");
    assert_eq!(resolve_sim_threads(1), 1);
}
