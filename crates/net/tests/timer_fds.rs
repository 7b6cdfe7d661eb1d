//! Every `ThreadNet` node's bell owns a kernel timer (a `timerfd` on
//! Linux). Building and dropping nets must give every descriptor back.
//! Alone in its own test binary, so no other test opens descriptors
//! while this one counts them.

#[cfg(target_os = "linux")]
#[test]
fn building_and_dropping_nets_leaks_no_descriptor() {
    use prcc_net::{DelayModel, ThreadNet};
    let open = || std::fs::read_dir("/proc/self/fd").unwrap().count();
    let before = open();
    for seed in 0..1_000 {
        let net: ThreadNet<u32> = ThreadNet::new(8, DelayModel::Fixed(1), seed);
        drop(net);
    }
    assert_eq!(
        open(),
        before,
        "1 000 dropped nets of 8 nodes kept descriptors"
    );
}
