//! Pins the interner's hit path: looking up a tag that is already
//! interned, by a name that is already trimmed lowercase, allocates
//! nothing — it is paid once per entity mention on the tagging path.
//!
//! A single `#[test]`: the allocation counters are process-global.

use enblogue_types::{TagInterner, TagKind};

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

#[test]
fn interner_hits_do_not_allocate() {
    let interner = TagInterner::new();
    let names = ["barack obama", "eyjafjallajökull", "air traffic", "2011"];
    let ids: Vec<_> = names.iter().map(|n| interner.intern(n, TagKind::Entity)).collect();
    // The same names under another kind are different tags, interned later.
    let hashtag = interner.intern("air traffic", TagKind::Hashtag);

    let (hits, allocs) = alloc_counter::measure(|| {
        let mut hits = 0usize;
        for _ in 0..100 {
            for (name, id) in names.iter().zip(&ids) {
                hits += usize::from(interner.intern(name, TagKind::Entity) == *id);
                hits += usize::from(interner.get(name, TagKind::Entity) == Some(*id));
            }
            // Surrounding whitespace is trimmed without copying.
            hits += usize::from(interner.intern("  air traffic ", TagKind::Hashtag) == hashtag);
            hits += usize::from(interner.get("barack obama", TagKind::Term).is_none());
        }
        hits
    });
    assert_eq!(hits, 100 * (2 * names.len() + 2));
    assert_eq!(allocs, 0, "interner hits must not allocate");

    // Ids, order and per-kind listing are what they always were.
    assert_eq!(interner.len(), 5);
    assert_eq!(interner.ids_of_kind(TagKind::Entity), ids);
    assert_eq!(interner.ids_of_kind(TagKind::Hashtag), vec![hashtag]);
    // A name that needs lowercasing still resolves to the same id.
    assert_eq!(interner.intern("Barack OBAMA", TagKind::Entity), ids[0]);
}
