//! `NEATS_FAILPOINT` is read once, at the registry's first use. A malformed
//! part of the list must not disarm the parts that parse. The variable is
//! process-wide state, so this binary holds this one test only.

use neats_store::failpoint::{self, FAILPOINT_ENV};

#[test]
fn env_list_arms_every_well_formed_part() {
    std::env::set_var(FAILPOINT_ENV, "store.open_segment=err*1,bogus");
    assert!(failpoint::triggered("store.open_segment"), "the well-formed part was not armed");
    assert!(!failpoint::triggered("store.open_segment"), "err*1 fails exactly one hit");
    assert_eq!(failpoint::hits("store.open_segment"), 2);
    failpoint::clear_all();
}
