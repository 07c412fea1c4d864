//! An independent oracle for the histogram tree grower.
//!
//! The reference below grows a tree the plainest way there is: for each
//! node and each feature it sums the gradients per bin in row order, scans
//! the bins for the best split, and splits the rows with `Vec::partition`.
//! It shares no code with the grower beyond the binned dataset, so a bug
//! that the grower and its own helpers share still shows up here as a
//! different tree or a different leaf.

use helios_predict::binning::BinnedDataset;
use helios_predict::tree::{build_tree_in, Node, Tree, TreeParams, TreeWorkspace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// A leaf as the grower reports it: its value and its rows, in order.
type Leaf = (f64, Vec<u32>);

struct Reference<'a> {
    data: &'a BinnedDataset,
    features: &'a [u16],
    params: &'a TreeParams,
    nodes: Vec<Node>,
    leaves: Vec<Leaf>,
}

impl Reference<'_> {
    fn grow(&mut self, rows: Vec<u32>, grads: Vec<f64>, depth: usize) -> u32 {
        let grad_sum: f64 = grads.iter().sum();
        let count = rows.len();
        let node = self.nodes.len() as u32;
        let split = if depth >= self.params.max_depth || count < 2 * self.params.min_leaf {
            None
        } else {
            self.best_split(&rows, &grads, grad_sum)
        };
        let Some((feature, bin)) = split else {
            let value = -grad_sum / (count as f64 + self.params.lambda);
            self.nodes.push(Node::Leaf(value));
            self.leaves.push((value, rows));
            return node;
        };
        let data = self.data;
        let (left, right): (Vec<_>, Vec<_>) = rows
            .into_iter()
            .zip(grads)
            .partition(|&(r, _)| data.bin(feature as usize, r as usize) <= bin);
        self.nodes.push(Node::Leaf(0.0));
        let (rows, grads) = left.into_iter().unzip();
        let left = self.grow(rows, grads, depth + 1);
        let (rows, grads) = right.into_iter().unzip();
        let right = self.grow(rows, grads, depth + 1);
        self.nodes[node as usize] = Node::Split {
            feature,
            bin_threshold: bin,
            threshold: data.mappers[feature as usize].threshold(bin),
            left,
            right,
        };
        node
    }

    /// The best (feature, bin): within a feature the earliest maximal bin,
    /// across features the latest maximal feature.
    fn best_split(&self, rows: &[u32], grads: &[f64], grad_sum: f64) -> Option<(u16, u8)> {
        let TreeParams {
            min_leaf,
            lambda,
            min_gain,
            ..
        } = *self.params;
        let count = rows.len() as u64;
        let parent = grad_sum * grad_sum / (count as f64 + lambda);
        let mut best: Option<(u16, u8, f64)> = None;
        for &f in self.features {
            let nbins = self.data.mappers[f as usize].num_bins();
            if nbins < 2 {
                continue;
            }
            let mut g = vec![0.0; nbins];
            let mut n = vec![0u64; nbins];
            for (&r, &gr) in rows.iter().zip(grads) {
                let b = self.data.bin(f as usize, r as usize) as usize;
                g[b] += gr;
                n[b] += 1;
            }
            let mut feature_best: Option<(u8, f64)> = None;
            let (mut gl, mut nl) = (0.0, 0u64);
            for b in 0..nbins - 1 {
                gl += g[b];
                nl += n[b];
                let nr = count - nl;
                if nl < min_leaf as u64 || nr < min_leaf as u64 {
                    continue;
                }
                let gr = grad_sum - gl;
                let gain = gl * gl / (nl as f64 + lambda) + gr * gr / (nr as f64 + lambda) - parent;
                if gain > min_gain && feature_best.is_none_or(|(_, fg)| gain > fg) {
                    feature_best = Some((b as u8, gain));
                }
            }
            if let Some((b, gain)) = feature_best {
                if best.is_none_or(|(_, _, bg)| gain >= bg) {
                    best = Some((f, b, gain));
                }
            }
        }
        best.map(|(f, b, _)| (f, b))
    }
}

fn reference(
    data: &BinnedDataset,
    rows: &[u32],
    grads: &[f64],
    features: &[u16],
    params: &TreeParams,
) -> (Vec<Node>, Vec<Leaf>) {
    let mut r = Reference {
        data,
        features,
        params,
        nodes: Vec::new(),
        leaves: Vec::new(),
    };
    r.grow(rows.to_vec(), grads.to_vec(), 0);
    (r.nodes, r.leaves)
}

fn grown(
    ws: &mut TreeWorkspace,
    data: &BinnedDataset,
    rows: &[u32],
    grads: &[f64],
    features: &[u16],
    params: &TreeParams,
) -> (Tree, Vec<Leaf>) {
    let mut leaves = Vec::new();
    let tree = build_tree_in(
        ws,
        data,
        rows.to_vec(),
        grads.to_vec(),
        features,
        params,
        |value, leaf_rows| leaves.push((value, leaf_rows.to_vec())),
    );
    (tree, leaves)
}

/// One random column: continuous, low-cardinality (tied bins), binary,
/// constant (a single bin, never split), or a copy of an earlier column
/// (tied gains across features).
fn column(rng: &mut ChaCha12Rng, n: usize, earlier: &[Vec<f64>]) -> Vec<f64> {
    match rng.gen_range(0..5) {
        0 => (0..n).map(|_| rng.gen::<f64>() * 100.0).collect(),
        1 => (0..n).map(|_| rng.gen_range(0..4) as f64).collect(),
        2 => (0..n).map(|_| f64::from(rng.gen::<f64>() < 0.5)).collect(),
        3 => vec![7.0; n],
        _ if !earlier.is_empty() => earlier[rng.gen_range(0..earlier.len())].clone(),
        _ => (0..n).map(|i| (i % 9) as f64).collect(),
    }
}

#[test]
fn grower_matches_the_naive_reference() {
    let mut rng = ChaCha12Rng::seed_from_u64(2021);
    // One workspace for every case, as in a boosting run: pooled buffers
    // must not leak state from one tree into the next.
    let mut ws = TreeWorkspace::default();
    let mut splits = 0usize;
    for case in 0..300 {
        let n = rng.gen_range(1..=600usize);
        let mut cols: Vec<Vec<f64>> = Vec::new();
        for _ in 0..rng.gen_range(1..=6) {
            let c = column(&mut rng, n, &cols);
            cols.push(c);
        }
        let max_bins = [2, 4, 16, 64, 255][rng.gen_range(0..5usize)];
        let data = BinnedDataset::from_columns(&cols, max_bins);

        // Rows: all, an ascending subsample, or a shuffled subsample.
        let mut rows: Vec<u32> = (0..n as u32)
            .filter(|_| case % 3 == 0 || rng.gen::<f64>() < 0.7)
            .collect();
        if case % 3 == 2 {
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.gen_range(0..=i));
            }
        }
        // Gradients: continuous, or from a small set (tied gains).
        let grads: Vec<f64> = rows
            .iter()
            .map(|_| {
                if case % 2 == 0 {
                    rng.gen::<f64>() * 4.0 - 2.0
                } else {
                    [-1.0, 0.0, 1.0, 2.0][rng.gen_range(0..4usize)]
                }
            })
            .collect();
        // Features: all in order, or a shuffled non-empty subset.
        let mut features: Vec<u16> = (0..cols.len() as u16).collect();
        if case % 4 == 1 {
            for i in (1..features.len()).rev() {
                features.swap(i, rng.gen_range(0..=i));
            }
            features.truncate(rng.gen_range(1..=features.len()));
        }
        // min_leaf edges: 1, small, and exactly half the rows (the only
        // legal split is then the middle one).
        let min_leaf = match case % 5 {
            0 => 1,
            1 => rows.len() / 2,
            2 => rows.len() / 2 + 1,
            _ => rng.gen_range(1..=20),
        };
        let params = TreeParams {
            max_depth: rng.gen_range(0..=7),
            min_leaf,
            lambda: [0.0, 0.5, 1.0][rng.gen_range(0..3usize)],
            min_gain: [1e-9, 0.0, 1e-6][rng.gen_range(0..3usize)],
        };

        let (want_nodes, want_leaves) = reference(&data, &rows, &grads, &features, &params);
        let (tree, leaves) = grown(&mut ws, &data, &rows, &grads, &features, &params);
        assert_eq!(tree.nodes(), &want_nodes[..], "case {case}: {params:?}");
        assert_eq!(leaves, want_leaves, "case {case}: leaf rows differ");
        splits += tree.num_nodes() - tree.num_leaves();
    }
    // The cases must exercise splitting, not just single-leaf trees.
    assert!(splits > 300, "only {splits} splits over all cases");
}

#[test]
fn tied_gains_resolve_like_the_reference() {
    // Two identical columns give every split the same gain on both; the
    // later feature wins. The step sits mid-column, so the earliest
    // maximal bin is the one at the step.
    let x: Vec<f64> = (0..64).map(|i| (i % 8) as f64).collect();
    let cols = vec![x.clone(), x];
    let data = BinnedDataset::from_columns(&cols, 16);
    let rows: Vec<u32> = (0..64).collect();
    let grads: Vec<f64> = rows
        .iter()
        .map(|&r| if r % 8 < 4 { -1.0 } else { 1.0 })
        .collect();
    let features = [0u16, 1];
    let params = TreeParams {
        max_depth: 1,
        min_leaf: 1,
        lambda: 0.0,
        min_gain: 1e-9,
    };
    let (want_nodes, want_leaves) = reference(&data, &rows, &grads, &features, &params);
    let mut ws = TreeWorkspace::default();
    let (tree, leaves) = grown(&mut ws, &data, &rows, &grads, &features, &params);
    assert_eq!(tree.nodes(), &want_nodes[..]);
    assert_eq!(leaves, want_leaves);
    let Node::Split {
        feature,
        bin_threshold,
        ..
    } = tree.nodes()[0]
    else {
        panic!("root must split: {:?}", tree.nodes());
    };
    assert_eq!((feature, bin_threshold), (1, 3));
}
