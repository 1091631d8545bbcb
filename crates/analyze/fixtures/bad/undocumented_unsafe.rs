//! Seeded bad fixture for the `undocumented-unsafe` rule: raw-pointer
//! kernels and FFI whose obligations are stated nowhere — the real tree's
//! one unsafe island, the `signal(2)` wiring, documents its inline.
//! (Not compiled into the workspace; consumed by the analyzer's tests and
//! the CI negative smoke.)

fn spacer() {}

unsafe fn gather(ptr: *const u64, len: usize) -> u64 {
    let mut acc = 0;
    for i in 0..len {
        acc += unsafe { *ptr.add(i) };
    }
    acc
}

fn install_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(2, 0);
    }
}
