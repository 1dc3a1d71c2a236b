//! Heap allocations on the tabulated route path.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running in parallel never mix their counts. Once a thread has routed
//! one net, a route of a degree 3–6 net through the table allocates only
//! its answer: the frontier vector, the score survivors, and each witness
//! tree's points and parents. Classification allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use patlabor::{Engine, RouteSource};
use patlabor_geom::{Net, NetClass, Point};
use patlabor_lut::LutBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` on the calling thread.
struct Counting;

fn count() {
    // `try_with`: a thread being torn down may have dropped its slot.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so `Counting` upholds exactly `System`'s guarantees. Counting
// touches only a const-initialized thread-local `Cell` without a
// destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract, which `System`
        // shares.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // hence from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Seeded nets of degree 3–6: span 24 ties coordinates often, span
/// 10,000 rarely.
fn nets() -> Vec<Net> {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let mut nets = Vec::new();
    for span in [24i64, 10_000] {
        for i in 0..300 {
            let pins = (0..3 + i % 4)
                .map(|_| Point::new(rng.gen_range(0..span), rng.gen_range(0..span)))
                .collect();
            nets.push(Net::new(pins).expect("degree ≥ 3"));
        }
    }
    nets
}

#[test]
fn warm_lut_routes_allocate_only_the_answer() {
    let engine = Engine::with_table(LutBuilder::new(6).build());
    let nets = nets();
    engine.route(&nets[0]).expect("warm-up route serves");
    let mut total = 0;
    for net in &nets {
        let before = allocations();
        let outcome = engine.route(net).expect("a built table serves every net");
        let made = allocations() - before;
        assert_eq!(outcome.provenance.source, RouteSource::ExactLut);
        let bound = 2 + 2 * outcome.frontier.len() as u64;
        assert!(made <= bound, "{made} allocations, bound {bound}: {net:?}");
        total += made;
    }
    // Every route allocates at least its frontier and one tree.
    assert!(total >= 4 * nets.len() as u64, "{total} allocations in all");
}

#[test]
fn netclass_of_allocates_nothing() {
    for net in nets() {
        let before = allocations();
        let class = NetClass::of(&net);
        assert_eq!(allocations() - before, 0, "{net:?}");
        black_box(class);
    }
}
