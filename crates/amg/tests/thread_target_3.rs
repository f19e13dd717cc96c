//! `setup` at `exec::set_thread_target(3)` (see `thread_targets/mod.rs`).

mod thread_targets;

#[test]
fn hierarchy_equals_the_reference_on_three_threads() {
    thread_targets::hierarchy_equals_the_reference_at(3);
}
