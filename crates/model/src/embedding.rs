//! Token and position embedding tables.

use crate::param::{HasParams, Param};
use bagualu_tensor::rng::Rng;
use bagualu_tensor::Tensor;

/// A lookup table `[vocab, d]`: forward gathers rows, backward scatters
/// gradient rows back.
#[derive(Debug, Clone)]
pub struct Embedding {
    pub table: Param,
    cache_ids: Option<Vec<usize>>,
}

impl Embedding {
    pub fn new(name: &str, vocab: usize, d: usize, rng: &mut Rng) -> Embedding {
        Embedding {
            table: Param::new(
                format!("{name}.table"),
                Tensor::randn(&[vocab, d], 0.02, rng),
            ),
            cache_ids: None,
        }
    }

    pub(crate) fn dim(&self) -> usize {
        self.table.value.cols()
    }

    /// Give the table up to inference as a value for [`lookup`]; its
    /// gradient and the cache go with the layer.
    pub fn freeze(self) -> Tensor {
        self.table.value
    }

    /// Gather `[len(ids), d]` ([`lookup`]), caching the ids for backward.
    pub fn forward(&mut self, ids: &[usize]) -> Tensor {
        let out = lookup(&self.table.value, ids);
        self.cache_ids = Some(ids.to_vec());
        out
    }

    /// Scatter-add `dy` rows into the table gradient.
    pub fn backward(&mut self, dy: &Tensor) {
        let ids = self
            .cache_ids
            .take()
            .expect("Embedding::backward before forward");
        assert_eq!(dy.rows(), ids.len());
        assert_eq!(dy.cols(), self.dim());
        for (i, &id) in ids.iter().enumerate() {
            let src = dy.row(i);
            let dst = self.table.grad.row_mut(id);
            for (g, &v) in dst.iter_mut().zip(src) {
                *g += v;
            }
        }
    }
}

impl HasParams for Embedding {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

/// Rows `ids` of a `[vocab, d]` table, as `[len(ids), d]`. Panics on
/// out-of-vocab ids.
pub fn lookup(table: &Tensor, ids: &[usize]) -> Tensor {
    let v = table.rows();
    let mut out = Tensor::zeros(&[ids.len(), table.cols()]);
    for (i, &id) in ids.iter().enumerate() {
        assert!(id < v, "token id {id} out of vocab {v}");
        out.row_mut(i).copy_from_slice(table.row(id));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gathers_correct_rows() {
        let mut rng = Rng::seed_from(31);
        let mut emb = Embedding::new("t", 10, 4, &mut rng);
        let out = emb.forward(&[3, 3, 7]);
        assert_eq!(out.row(0), emb.table.value.row(3));
        assert_eq!(out.row(1), emb.table.value.row(3));
        assert_eq!(out.row(2), emb.table.value.row(7));
    }

    #[test]
    fn backward_scatter_adds_repeats() {
        let mut rng = Rng::seed_from(32);
        let mut emb = Embedding::new("t", 5, 2, &mut rng);
        emb.forward(&[1, 1, 4]);
        let dy = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0, 5.0, 6.0], &[3, 2]);
        emb.backward(&dy);
        // Row 1 used twice: gradients add.
        assert_eq!(emb.table.grad.row(1), &[11.0, 22.0]);
        assert_eq!(emb.table.grad.row(4), &[5.0, 6.0]);
        assert_eq!(emb.table.grad.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn rejects_out_of_vocab() {
        let mut rng = Rng::seed_from(33);
        let mut emb = Embedding::new("t", 5, 2, &mut rng);
        emb.forward(&[5]);
    }
}
