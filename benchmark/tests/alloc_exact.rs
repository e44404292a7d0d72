//! The counting allocator counts a known allocation sequence exactly and
//! leaves the reference kernel out. One test in a binary of its own: the
//! counters are process-wide, and no other test thread may allocate
//! while this one counts.

use std::hint::black_box;
use xdb_benchmark::alloc::{self, Counts};
use xdb_benchmark::refkernel::{RefKernel, CHECKSUM};

#[test]
fn counts_a_known_sequence_exactly_and_ignores_the_kernel() {
    let kernel = RefKernel::new();

    // 1 vector of 1000 pointers + 1000 boxes of 8 bytes.
    let before = Counts::now();
    let mut boxes: Vec<Box<u64>> = Vec::with_capacity(1000);
    for i in 0..1000u64 {
        boxes.push(black_box(Box::new(i)));
    }
    let delta = Counts::now().since(before);
    assert_eq!(
        delta,
        Counts {
            allocs: 1001,
            bytes: 8000 + 8000
        }
    );

    // A realloc is one more allocation, of the new size.
    let before = Counts::now();
    let mut bytes: Vec<u8> = Vec::with_capacity(100);
    bytes.extend_from_slice(&[7u8; 100]);
    bytes.reserve_exact(900);
    black_box(&bytes);
    let delta = Counts::now().since(before);
    assert_eq!(
        delta,
        Counts {
            allocs: 2,
            bytes: 100 + 1000
        }
    );

    // alloc_zeroed counts as well.
    let before = Counts::now();
    let zeros = black_box(vec![0u32; 256]);
    assert_eq!(
        Counts::now().since(before),
        Counts {
            allocs: 1,
            bytes: 1024
        }
    );
    drop(zeros);

    // Frees are not allocations.
    let before = Counts::now();
    drop(boxes);
    drop(bytes);
    assert_eq!(Counts::now().since(before), Counts::default());

    // The kernel allocates tens of thousands of blocks; under `uncounted`
    // none of them shows, and counting resumes afterwards.
    let before = Counts::now();
    assert_eq!(alloc::uncounted(|| kernel.run()), CHECKSUM);
    assert_eq!(Counts::now().since(before), Counts::default());
    let before = Counts::now();
    let counted_run = kernel.run();
    let delta = Counts::now().since(before);
    assert_eq!(counted_run, CHECKSUM);
    assert!(
        delta.allocs > 50_000,
        "the kernel churns the heap: {delta:?}"
    );
}
