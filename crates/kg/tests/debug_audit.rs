//! Corruption tests for the kg `debug-audit` subgraph checker: mangle an
//! extracted subgraph's public fields and assert `validate` panics with
//! a message that names the violation.
//!
//! Run with `cargo test -p facility-kg --features debug-audit`.

#![cfg(feature = "debug-audit")]

use facility_kg::builder::{Ckg, CkgBuilder, KnowledgeSource, SourceMask};
use facility_kg::subgraph::{BatchSubgraph, SubgraphScratch, UnionExtraction};

fn world() -> Ckg {
    let mut b = CkgBuilder::new(3, 4);
    b.add_interactions(&[(0, 0), (0, 1), (1, 1), (2, 2)]);
    for i in 0..4u32 {
        b.add_item_attribute(KnowledgeSource::Dkg, "dataType", i, format!("t{}", i % 2));
    }
    b.build(SourceMask::all())
}

fn extract(ckg: &Ckg) -> BatchSubgraph {
    let mut scratch = SubgraphScratch::new(ckg.n_entities());
    scratch.extract(ckg, &[0, 1], 2)
}

fn catch(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let err = std::panic::catch_unwind(f).expect_err("validate must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn clean_extraction_validates() {
    let ckg = world();
    let sub = extract(&ckg); // extract() itself validates under debug-audit
    sub.validate(&ckg);
    assert!(sub.n_nodes() > 0);
    assert_eq!(sub.layers.len(), 2);
}

#[test]
fn dropped_edge_is_caught() {
    let ckg = world();
    let mut sub = extract(&ckg);
    assert!(sub.n_edges() > 1, "fixture needs edges");
    let layer = &mut sub.layers[0];
    layer.edge_ids.remove(0);
    layer.tails.remove(0);
    layer.heads.remove(0);
    let msg = catch(move || sub.validate(&ckg));
    assert!(msg.contains("missing edge"), "unhelpful panic: {msg}");
}

#[test]
fn dropped_slice_is_caught_without_a_cut() {
    let ckg = world();
    let mut sub = extract(&ckg);
    // Drop head 0's whole slice: only a cut non-seed may carry no edges.
    let layer = &mut sub.layers[0];
    let carried = layer.heads.iter().take_while(|&&h| h == 0).count();
    assert!(carried > 0, "fixture's first head needs edges");
    layer.edge_ids.drain(..carried);
    layer.tails.drain(..carried);
    layer.heads.drain(..carried);
    let msg = catch(move || sub.validate(&ckg));
    assert!(msg.contains("missing edge"), "unhelpful panic: {msg}");
}

#[test]
fn unsorted_nodes_are_caught() {
    let ckg = world();
    let mut sub = extract(&ckg);
    assert!(sub.n_nodes() >= 2, "fixture needs 2+ nodes");
    sub.nodes.swap(0, 1);
    let msg = catch(move || sub.validate(&ckg));
    assert!(msg.contains("not strictly sorted"), "unhelpful panic: {msg}");
}

#[test]
fn unsorted_layer_rows_are_caught() {
    let ckg = world();
    let mut sub = extract(&ckg);
    assert!(sub.layers[0].rows.len() >= 2, "fixture needs 2+ layer-1 heads");
    sub.layers[0].rows.swap(0, 1);
    let msg = catch(move || sub.validate(&ckg));
    assert!(msg.contains("layer 1 rows not strictly sorted"), "unhelpful panic: {msg}");
}

#[test]
fn head_outside_the_previous_layer_is_caught() {
    let ckg = world();
    let mut sub = extract(&ckg);
    // Layer 2's first head claims a different row of layer 1.
    sub.layers[1].self_rows[0] = sub.layers[0].rows.len();
    let msg = catch(move || sub.validate(&ckg));
    assert!(msg.contains("not nested in the previous layer"), "unhelpful panic: {msg}");
}

#[test]
fn escaped_tail_is_caught() {
    let ckg = world();
    let mut sub = extract(&ckg);
    // A layer-2 tail one past layer 1's rows, still inside the closure.
    let n_prev = sub.layers[0].rows.len();
    assert!(n_prev < sub.n_nodes() && !sub.layers[1].tails.is_empty(), "fixture needs a shrink");
    sub.layers[1].tails[0] = n_prev;
    let msg = catch(move || sub.validate(&ckg));
    assert!(msg.contains("tail escapes the previous layer"), "unhelpful panic: {msg}");
}

#[test]
fn trailing_phantom_edge_is_caught() {
    let ckg = world();
    let mut sub = extract(&ckg);
    let layer = &mut sub.layers[0];
    layer.edge_ids.push(0);
    layer.tails.push(0);
    layer.heads.push(layer.rows.len().saturating_sub(1));
    let msg = catch(move || sub.validate(&ckg));
    assert!(
        msg.contains("beyond its heads") || msg.contains("missing edge"),
        "unhelpful panic: {msg}"
    );
}

#[test]
fn bad_seed_local_is_caught() {
    let ckg = world();
    let mut sub = extract(&ckg);
    sub.seed_locals[0] = sub.n_nodes() + 3;
    let msg = catch(move || sub.validate(&ckg));
    assert!(msg.contains("seed local id"), "unhelpful panic: {msg}");
}

#[test]
fn bad_layer_seed_position_is_caught() {
    let ckg = world();
    let mut sub = extract(&ckg);
    let last = sub.layers.last_mut().unwrap();
    last.seeds[0] = (last.seeds[0] + 1) % last.rows.len();
    let msg = catch(move || sub.validate(&ckg));
    assert!(msg.contains("seed position"), "unhelpful panic: {msg}");
}

fn extract_union(ckg: &Ckg) -> UnionExtraction {
    let mut scratch = SubgraphScratch::new(ckg.n_entities());
    // extract_many() itself validates under debug-audit.
    scratch.extract_many(ckg, &[vec![0, 1], vec![2]], 2)
}

#[test]
fn clean_union_extraction_validates() {
    let ckg = world();
    let union = extract_union(&ckg);
    union.validate(&ckg);
    assert_eq!(union.subgraphs.len(), 2);
    assert!(!union.union_nodes.is_empty());
}

#[test]
fn unsorted_union_nodes_are_caught() {
    let ckg = world();
    let mut union = extract_union(&ckg);
    assert!(union.union_nodes.len() >= 2, "fixture needs 2+ union nodes");
    union.union_nodes.swap(0, 1);
    let msg = catch(move || union.validate(&ckg));
    assert!(msg.contains("union nodes not strictly sorted"), "unhelpful panic: {msg}");
}

#[test]
fn out_of_range_union_node_is_caught() {
    let ckg = world();
    let mut union = extract_union(&ckg);
    // Keep the list sorted so only the range check can fire; the id is now
    // absent from the union, so the escape check fires on a subgraph —
    // either message names the corruption.
    *union.union_nodes.last_mut().unwrap() = ckg.n_entities();
    let msg = catch(move || union.validate(&ckg));
    assert!(
        msg.contains("outside the entity range") || msg.contains("escapes the union"),
        "unhelpful panic: {msg}"
    );
}

#[test]
fn subgraph_node_escaping_the_union_is_caught() {
    let ckg = world();
    let mut union = extract_union(&ckg);
    // Shrink the union under an untouched (still individually valid)
    // subgraph: its nodes now reference an id the union no longer holds.
    let victim = union.subgraphs[0].nodes[0];
    union.union_nodes.retain(|&g| g != victim);
    let msg = catch(move || union.validate(&ckg));
    assert!(msg.contains("escapes the union"), "unhelpful panic: {msg}");
}

#[test]
fn corrupt_member_subgraph_fails_union_validation() {
    let ckg = world();
    let mut union = extract_union(&ckg);
    // Union-level validation must recurse into every derived subgraph.
    let sub = &mut union.subgraphs[1];
    sub.layers[0].tails[0] = sub.n_nodes();
    let msg = catch(move || union.validate(&ckg));
    assert!(msg.contains("tail escapes the previous layer"), "unhelpful panic: {msg}");
}
