//! Pure-Rust reference implementations of every model, computed by direct
//! recursion over the pointer-linked structure with exact nonlinearities.
//!
//! These are the ground truth for all schedule-equivalence tests: whatever
//! combination of fusion, specialization, batching, unrolling, refactoring
//! or peeling the compiler applies, the executed program must reproduce
//! these values.
//!
//! Results are indexed by the *structure's* node ids (builder order);
//! [`crate::verify`] translates through the linearizer's renumbering when
//! comparing.

use cortex_backend::params::Params;
use cortex_ds::{RecStructure, StructureKind};
use cortex_tensor::approx::{sigmoid_exact, tanh_exact};
use cortex_tensor::{kernels, Tensor};

use crate::model::LeafInit;

fn p<'a>(params: &'a Params, name: &str) -> &'a Tensor {
    params
        .get(name)
        .unwrap_or_else(|| panic!("reference: missing parameter '{name}'"))
}

/// `W · x` accumulated in the same order as the executor's fast path
/// (slice dot per output row).
fn mv(w: &Tensor, x: &[f32]) -> Vec<f32> {
    let h_out = w.shape().dim(0);
    (0..h_out).map(|i| kernels::dot(w.row(i), x)).collect()
}

fn add3(a: &[f32], b: &[f32], c: &[f32]) -> Vec<f32> {
    a.iter()
        .zip(b)
        .zip(c)
        .map(|((x, y), z)| x + y + z)
        .collect()
}

fn child_sum(vals: &[Vec<f32>], children: &[usize], h: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; h];
    // Match the inlined `h[c0] + h[c1] + …` association (left to right,
    // elementwise).
    for i in 0..h {
        let mut acc = vals[children[0]][i];
        for &c in &children[1..] {
            acc += vals[c][i];
        }
        out[i] = acc;
    }
    out
}

fn leaf_vec(leaf: LeafInit, emb: &Tensor, word: u32, h: usize) -> Vec<f32> {
    match leaf {
        LeafInit::Zero => vec![0.0; h],
        LeafInit::Embedding => emb.row(word as usize).to_vec(),
    }
}

/// TreeRNN: `h(n) = tanh(W · (Σ_c h_c) + b)`.
pub fn tree_rnn(s: &RecStructure, params: &Params, h: usize, leaf: LeafInit) -> Vec<Vec<f32>> {
    let w = p(params, "W");
    let b = p(params, "b");
    let emb = p(params, "Emb");
    let mut vals = vec![Vec::new(); s.num_nodes()];
    for n in s.post_order() {
        let kids: Vec<usize> = s.children(n).iter().map(|c| c.index()).collect();
        vals[n.index()] = if kids.is_empty() {
            leaf_vec(leaf, emb, s.word(n), h)
        } else {
            let hs = child_sum(&vals, &kids, h);
            mv(w, &hs)
                .iter()
                .zip(b.as_slice())
                .map(|(x, bias)| tanh_exact(x + bias))
                .collect()
        };
    }
    vals
}

/// TreeFC: `h(n) = tanh(W_l · h_l + W_r · h_r + b)`.
pub fn tree_fc(s: &RecStructure, params: &Params, h: usize, leaf: LeafInit) -> Vec<Vec<f32>> {
    let wl = p(params, "W_l");
    let wr = p(params, "W_r");
    let b = p(params, "b");
    let emb = p(params, "Emb");
    let mut vals = vec![Vec::new(); s.num_nodes()];
    for n in s.post_order() {
        let kids = s.children(n);
        vals[n.index()] = if kids.is_empty() {
            leaf_vec(leaf, emb, s.word(n), h)
        } else {
            let l = mv(wl, &vals[kids[0].index()]);
            let r = mv(wr, &vals[kids[1].index()]);
            add3(&l, &r, b.as_slice())
                .iter()
                .map(|&x| tanh_exact(x))
                .collect()
        };
    }
    vals
}

/// TreeGRU / SimpleTreeGRU (also the sequential GRU via single children).
pub fn tree_gru(
    s: &RecStructure,
    params: &Params,
    h: usize,
    leaf: LeafInit,
    simple: bool,
) -> Vec<Vec<f32>> {
    let ur = p(params, "U_r");
    let uz = p(params, "U_z");
    let uh = p(params, "U_h");
    let br = p(params, "b_r");
    let bz = p(params, "b_z");
    let bh = p(params, "b_h");
    let emb = p(params, "Emb");
    let mut vals = vec![Vec::new(); s.num_nodes()];
    for n in s.post_order() {
        let kids: Vec<usize> = s.children(n).iter().map(|c| c.index()).collect();
        vals[n.index()] = if kids.is_empty() {
            leaf_vec(leaf, emb, s.word(n), h)
        } else {
            let hs = child_sum(&vals, &kids, h);
            let r: Vec<f32> = mv(ur, &hs)
                .iter()
                .zip(br.as_slice())
                .map(|(x, b)| sigmoid_exact(x + b))
                .collect();
            let z: Vec<f32> = mv(uz, &hs)
                .iter()
                .zip(bz.as_slice())
                .map(|(x, b)| sigmoid_exact(x + b))
                .collect();
            let gated: Vec<f32> = r.iter().zip(&hs).map(|(rv, hv)| rv * hv).collect();
            let hp: Vec<f32> = mv(uh, &gated)
                .iter()
                .zip(bh.as_slice())
                .map(|(x, b)| tanh_exact(x + b))
                .collect();
            (0..h)
                .map(|i| {
                    let keep = (1.0 - z[i]) * hp[i];
                    if simple {
                        keep
                    } else {
                        z[i] * hs[i] + keep
                    }
                })
                .collect()
        };
    }
    vals
}

/// TreeLSTM reference values: both hidden and cell states.
#[derive(Debug, Clone)]
pub struct LstmRef {
    /// Hidden states per structure node.
    pub h: Vec<Vec<f32>>,
    /// Cell states per structure node.
    pub c: Vec<Vec<f32>>,
}

/// Child-sum TreeLSTM (also the sequential LSTM via single children).
pub fn tree_lstm(s: &RecStructure, params: &Params, h: usize, leaf: LeafInit) -> LstmRef {
    let ui = p(params, "U_i");
    let uo = p(params, "U_o");
    let uu = p(params, "U_u");
    let uf = p(params, "U_f");
    let bi = p(params, "b_i");
    let bo = p(params, "b_o");
    let bu = p(params, "b_u");
    let bf = p(params, "b_f");
    let emb_c = p(params, "Emb_c");
    let emb_h = p(params, "Emb_h");
    let mut hv = vec![Vec::new(); s.num_nodes()];
    let mut cv = vec![Vec::new(); s.num_nodes()];
    for n in s.post_order() {
        let kids: Vec<usize> = s.children(n).iter().map(|c| c.index()).collect();
        if kids.is_empty() {
            cv[n.index()] = leaf_vec(leaf, emb_c, s.word(n), h);
            hv[n.index()] = leaf_vec(leaf, emb_h, s.word(n), h);
        } else {
            let hs = child_sum(&hv, &kids, h);
            let ig: Vec<f32> = mv(ui, &hs)
                .iter()
                .zip(bi.as_slice())
                .map(|(x, b)| sigmoid_exact(x + b))
                .collect();
            let og: Vec<f32> = mv(uo, &hs)
                .iter()
                .zip(bo.as_slice())
                .map(|(x, b)| sigmoid_exact(x + b))
                .collect();
            let ug: Vec<f32> = mv(uu, &hs)
                .iter()
                .zip(bu.as_slice())
                .map(|(x, b)| tanh_exact(x + b))
                .collect();
            let fgs: Vec<Vec<f32>> = kids
                .iter()
                .map(|&c| {
                    mv(uf, &hv[c])
                        .iter()
                        .zip(bf.as_slice())
                        .map(|(x, b)| sigmoid_exact(x + b))
                        .collect()
                })
                .collect();
            let c_new: Vec<f32> = (0..h)
                .map(|i| {
                    let mut acc = ig[i] * ug[i];
                    for (f, &cid) in fgs.iter().zip(&kids) {
                        acc += f[i] * cv[cid][i];
                    }
                    acc
                })
                .collect();
            let h_new: Vec<f32> = (0..h).map(|i| og[i] * tanh_exact(c_new[i])).collect();
            cv[n.index()] = c_new;
            hv[n.index()] = h_new;
        }
    }
    LstmRef { h: hv, c: cv }
}

/// MV-RNN reference values: vectors and (row-major flattened) matrices.
#[derive(Debug, Clone)]
pub struct MvRef {
    /// Composition vectors per node.
    pub a: Vec<Vec<f32>>,
    /// Composition matrices per node, row-major `h*h`.
    pub mats: Vec<Vec<f32>>,
}

/// MV-RNN (Socher et al. 2012).
pub fn mv_rnn(s: &RecStructure, params: &Params, h: usize) -> MvRef {
    let w1 = p(params, "W_1");
    let w2 = p(params, "W_2");
    let b = p(params, "b");
    let wm1 = p(params, "W_M1");
    let wm2 = p(params, "W_M2");
    let emb = p(params, "Emb");
    let emb_m = p(params, "Emb_M");
    let mat_vocab = emb_m.shape().dim(0);
    let mut av = vec![Vec::new(); s.num_nodes()];
    let mut mats = vec![Vec::new(); s.num_nodes()];
    // Matrix × vector with the matrix stored row-major in a flat slice,
    // accumulated sequentially (matching the executor's strided loop).
    let mat_mv = |m: &[f32], x: &[f32]| -> Vec<f32> {
        (0..h)
            .map(|i| {
                let mut acc = 0.0f32;
                for k in 0..h {
                    acc += m[i * h + k] * x[k];
                }
                acc
            })
            .collect()
    };
    for n in s.post_order() {
        let kids = s.children(n);
        if kids.is_empty() {
            av[n.index()] = emb.row(s.word(n) as usize).to_vec();
            let row = (s.word(n) as usize) % mat_vocab;
            mats[n.index()] = emb_m.as_slice()[row * h * h..(row + 1) * h * h].to_vec();
        } else {
            let (l, r) = (kids[0].index(), kids[1].index());
            let ba = mat_mv(&mats[r], &av[l]);
            let ab = mat_mv(&mats[l], &av[r]);
            let p1 = mv(w1, &ba);
            let p2 = mv(w2, &ab);
            av[n.index()] = add3(&p1, &p2, b.as_slice())
                .iter()
                .map(|&x| tanh_exact(x))
                .collect();
            // A(n)[i][j] = Σ_k WM1[i,k] A_l[k,j] + Σ_k WM2[i,k] A_r[k,j]
            let mut m_new = vec![0.0f32; h * h];
            for i in 0..h {
                for j in 0..h {
                    let mut acc1 = 0.0f32;
                    for k in 0..h {
                        acc1 += wm1[[i, k]] * mats[l][k * h + j];
                    }
                    let mut acc2 = 0.0f32;
                    for k in 0..h {
                        acc2 += wm2[[i, k]] * mats[r][k * h + j];
                    }
                    m_new[i * h + j] = acc1 + acc2;
                }
            }
            mats[n.index()] = m_new;
        }
    }
    MvRef { a: av, mats }
}

/// DAG-RNN (recursive portion): `h(n) = tanh(x(n) + Σ_d U_d · h(child_d))`.
pub fn dag_rnn(s: &RecStructure, params: &Params, h: usize) -> Vec<Vec<f32>> {
    assert_eq!(s.kind(), StructureKind::Dag, "DAG-RNN expects DAG inputs");
    let wx = p(params, "W_x");
    let bx = p(params, "b_x");
    let us = [p(params, "U_0"), p(params, "U_1")];
    let emb = p(params, "Emb");
    let mut vals = vec![Vec::new(); s.num_nodes()];
    for n in s.post_order() {
        let x: Vec<f32> = mv(wx, emb.row(s.word(n) as usize))
            .iter()
            .zip(bx.as_slice())
            .map(|(v, b)| v + b)
            .collect();
        let kids = s.children(n);
        vals[n.index()] = (0..h)
            .map(|i| {
                let mut acc = x[i];
                for (d, c) in kids.iter().enumerate() {
                    acc += kernels::dot(us[d].row(i), &vals[c.index()]);
                }
                tanh_exact(acc)
            })
            .collect();
    }
    vals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::init_param;
    use cortex_ds::datasets;

    #[test]
    fn tree_rnn_leaf_values_pass_through() {
        let mut params = Params::new();
        params.set("W", init_param("W", &[4, 4]));
        params.set("b", init_param("b", &[4]));
        params.set("Emb", init_param("Emb", &[crate::dsl::VOCAB, 4]));
        let t = datasets::random_binary_tree(3, 0);
        let vals = tree_rnn(&t, &params, 4, LeafInit::Embedding);
        for n in t.iter().filter(|&n| t.is_leaf(n)) {
            let emb = params.get("Emb").unwrap();
            assert_eq!(vals[n.index()], emb.row(t.word(n) as usize));
        }
    }

    #[test]
    fn gru_outputs_bounded() {
        let m = crate::treegru::tree_gru(4, LeafInit::Zero);
        let t = datasets::random_binary_tree(10, 1);
        let vals = tree_gru(&t, &m.params, 4, LeafInit::Zero, false);
        // GRU states are convex-ish combinations of tanh values: bounded.
        for v in vals.iter().flat_map(|v| v.iter()) {
            assert!(v.abs() <= 2.0, "unexpected magnitude {v}");
        }
    }

    #[test]
    fn lstm_cell_and_hidden_have_consistent_shapes() {
        let m = crate::treelstm::tree_lstm(4, LeafInit::Zero);
        let t = datasets::random_binary_tree(5, 2);
        let r = tree_lstm(&t, &m.params, 4, LeafInit::Zero);
        assert_eq!(r.h.len(), t.num_nodes());
        assert_eq!(r.c.len(), t.num_nodes());
        assert!(r.h.iter().all(|v| v.len() == 4));
    }

    #[test]
    fn dag_rnn_rejects_trees() {
        let m = crate::dagrnn::dag_rnn(4);
        let t = datasets::random_binary_tree(4, 3);
        let result = std::panic::catch_unwind(|| dag_rnn(&t, &m.params, 4));
        assert!(result.is_err());
    }
}
