//! Pins the allocation count of the drill-down reads `top_k` and
//! `pairs_with_tag`: each slices the ranking the view already holds, so a
//! call makes exactly one allocation (its result), and none when
//! `pairs_with_tag` matches nothing.
//!
//! The counting-allocator shim is this binary's global allocator and its
//! counters are process-global, so this file holds exactly one `#[test]`.

use enblogue_core::config::EnBlogueConfig;
use enblogue_core::engine::EnBlogueEngine;
use enblogue_core::query::QueryView;
use enblogue_serve::{QueryHandle, ServeConfig};
use enblogue_types::{Document, TagId, TagInterner, TagKind, Tick, TickSpec, Timestamp};

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Allocation events of one call of `read`.
fn allocs_of<R>(read: impl FnOnce() -> R) -> u64 {
    let (result, allocs) = alloc_counter::measure(read);
    drop(result);
    allocs
}

#[test]
fn drill_down_reads_allocate_only_their_result() {
    let interner = TagInterner::new();
    let tags: Vec<TagId> =
        (0..17).map(|i| interner.intern(&format!("tag{i:02}"), TagKind::Hashtag)).collect();
    let config = EnBlogueConfig::builder()
        .tick_spec(TickSpec::hourly())
        .window_ticks(6)
        .seed_count(8)
        .top_k(10)
        .build()
        .unwrap();
    let mut engine = EnBlogueEngine::new(config);
    let handle = QueryHandle::attach(&mut engine, interner.clone(), ServeConfig::default());
    // Rotating co-occurrences whose volume keeps shifting, so the ranking
    // is non-empty at the last close.
    let mut id = 0u64;
    for t in 0..12u64 {
        let mut docs = Vec::new();
        for a in 0..8usize {
            for _ in 0..1 + (a as u64 + t) % 4 {
                id += 1;
                docs.push(
                    Document::builder(id, Timestamp::from_hours(t))
                        .tag(tags[a])
                        .tag(tags[a + 8])
                        .build(),
                );
            }
        }
        engine.process_docs(&docs);
        engine.close_tick(Tick(t));
    }

    let view = handle.view().expect("published");
    let ranked = view.ranking().expect("closed").ranked;
    assert!(!ranked.is_empty(), "the workload must rank something");
    let hit = ranked[0].0.lo();
    let miss = tags[16]; // interned, never observed
    assert!(view.pairs_with_tag(miss).is_empty());
    let live = engine.query_view(interner.clone());

    assert_eq!(allocs_of(|| handle.top_k(3)), 1, "handle top_k");
    assert_eq!(allocs_of(|| handle.pairs_with_tag(hit)), 1, "handle pairs_with_tag");
    assert_eq!(allocs_of(|| handle.pairs_with_tag(miss)), 0, "handle pairs_with_tag, no match");
    assert_eq!(allocs_of(|| view.top_k(3)), 1, "view top_k");
    assert_eq!(allocs_of(|| view.pairs_with_tag(hit)), 1, "view pairs_with_tag");
    assert_eq!(allocs_of(|| view.pairs_with_tag(miss)), 0, "view pairs_with_tag, no match");
    assert_eq!(allocs_of(|| live.top_k(3)), 1, "engine top_k");
    assert_eq!(allocs_of(|| live.pairs_with_tag(hit)), 1, "engine pairs_with_tag");
    assert_eq!(allocs_of(|| live.pairs_with_tag(miss)), 0, "engine pairs_with_tag, no match");
    assert_eq!(allocs_of(|| handle.top_k(0)), 0, "an empty top_k allocates nothing");
}
