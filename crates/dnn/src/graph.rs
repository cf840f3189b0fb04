//! Validated layer DAGs.

use crate::{CostModel, DnnError, Layer, LayerKind, TensorShape};
use sgprs_gpu_sim::WorkProfile;

/// Index of a layer node within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// A DAG of layers with resolved shapes, built via [`NetworkBuilder`].
///
/// Nodes are stored in insertion order, which the builder guarantees is a
/// topological order (a layer can only consume already-built nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// Architecture name (e.g. `"resnet18"`).
    pub name: String,
    /// Input activation shape.
    pub input: TensorShape,
    layers: Vec<Layer>,
    predecessors: Vec<Vec<usize>>,
}

impl Network {
    /// The layers in topological (insertion) order.
    #[must_use]
    pub(crate) fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` for a network with no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The predecessor node indices of layer `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn predecessors(&self, id: NodeId) -> &[usize] {
        &self.predecessors[id.0]
    }

    /// Total FLOPs per inference.
    #[must_use]
    pub(crate) fn total_flops(&self) -> u64 {
        self.layers.iter().map(|l| l.flops).sum()
    }

    /// Total bytes moved per inference.
    #[must_use]
    pub(crate) fn total_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.bytes).sum()
    }

    /// The whole network's work profile under a cost model (used for
    /// monolithic, non-staged execution — the naive baseline).
    #[must_use]
    pub fn work_profile(&self, cost: &CostModel) -> WorkProfile {
        let mut profile = WorkProfile::new();
        for layer in &self.layers {
            profile.add(layer.op_class(), cost.single_sm_ns(layer));
        }
        profile
    }

    /// The final layer's output shape.
    #[must_use]
    pub fn output_shape(&self) -> Option<TensorShape> {
        self.layers.last().map(|l| l.output)
    }
}

/// Incremental builder for [`Network`] (see `C-BUILDER`).
///
/// # Example
///
/// ```
/// use sgprs_dnn::{LayerKind, NetworkBuilder, TensorShape};
///
/// # fn main() -> Result<(), sgprs_dnn::DnnError> {
/// let mut b = NetworkBuilder::new("tiny", TensorShape::new(1, 3, 8, 8));
/// let c = b.layer(
///     "conv",
///     LayerKind::Conv2d { out_channels: 4, kernel: 3, stride: 1, padding: 1, groups: 1 },
///     &[],
/// )?;
/// b.layer("relu", LayerKind::Relu, &[c])?;
/// let net = b.finish();
/// assert_eq!(net.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    input: TensorShape,
    layers: Vec<Layer>,
    predecessors: Vec<Vec<usize>>,
}

impl NetworkBuilder {
    /// Starts a network with the given input shape.
    #[must_use]
    pub fn new(name: impl Into<String>, input: TensorShape) -> Self {
        NetworkBuilder {
            name: name.into(),
            input,
            layers: Vec::new(),
            predecessors: Vec::new(),
        }
    }

    /// Appends a layer consuming the outputs of `preds`. An empty `preds`
    /// list means the layer reads the network input (or, as a convenience,
    /// the previous layer if one exists — pass explicit ids to be
    /// precise).
    ///
    /// Returns the new node's id.
    ///
    /// # Errors
    ///
    /// Propagates shape/arity errors from shape inference, or
    /// [`DnnError::UnknownNode`] for dangling ids.
    pub fn layer(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        preds: &[NodeId],
    ) -> Result<NodeId, DnnError> {
        let name = name.into();
        let mut input_shapes = Vec::with_capacity(preds.len().max(1));
        let mut pred_idx = Vec::with_capacity(preds.len());
        if preds.is_empty() {
            input_shapes.push(self.input);
        } else {
            for &p in preds {
                let layer = self
                    .layers
                    .get(p.0)
                    .ok_or(DnnError::UnknownNode { node: p.0 })?;
                input_shapes.push(layer.output);
                pred_idx.push(p.0);
            }
        }
        let output = kind.infer_shape(&name, &input_shapes)?;
        let flops = kind.flops(input_shapes[0], output);
        let bytes = kind.bytes(&input_shapes, output);
        self.layers.push(Layer {
            name,
            kind,
            inputs: input_shapes,
            output,
            flops,
            bytes,
        });
        self.predecessors.push(pred_idx);
        Ok(NodeId(self.layers.len() - 1))
    }

    /// Appends a layer consuming the single node `pred`.
    ///
    /// # Errors
    ///
    /// Same as [`NetworkBuilder::layer`].
    pub(crate) fn layer_on(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        pred: NodeId,
    ) -> Result<NodeId, DnnError> {
        self.layer(name, kind, &[pred])
    }

    /// Finalises the network.
    #[must_use]
    pub fn finish(self) -> Network {
        Network {
            name: self.name,
            input: self.input,
            layers: self.layers,
            predecessors: self.predecessors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(out: u64) -> LayerKind {
        LayerKind::Conv2d {
            out_channels: out,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        }
    }

    #[test]
    fn builder_chains_shapes() {
        let mut b = NetworkBuilder::new("t", TensorShape::new(1, 3, 16, 16));
        let c1 = b.layer("c1", conv(8), &[]).unwrap();
        let r1 = b.layer_on("r1", LayerKind::Relu, c1).unwrap();
        let _c2 = b.layer_on("c2", conv(16), r1).unwrap();
        let net = b.finish();
        assert_eq!(net.len(), 3);
        assert_eq!(net.output_shape(), Some(TensorShape::new(1, 16, 16, 16)));
        assert_eq!(net.predecessors(NodeId(2)), &[1]);
        assert!(net.predecessors(NodeId(0)).is_empty());
    }

    #[test]
    fn unknown_predecessor_is_rejected() {
        let mut b = NetworkBuilder::new("t", TensorShape::new(1, 3, 16, 16));
        let err = b.layer("c", conv(8), &[NodeId(3)]).unwrap_err();
        assert!(matches!(err, DnnError::UnknownNode { node: 3 }));
    }

    #[test]
    fn residual_add_joins_two_branches() {
        let mut b = NetworkBuilder::new("t", TensorShape::new(1, 8, 8, 8));
        let trunk = b.layer("c1", conv(8), &[]).unwrap();
        let branch = b.layer_on("c2", conv(8), trunk).unwrap();
        let add = b.layer("add", LayerKind::Add, &[branch, trunk]).unwrap();
        let net = b.finish();
        assert_eq!(net.predecessors(add), &[1, 0]);
    }

    #[test]
    fn totals_accumulate() {
        let mut b = NetworkBuilder::new("t", TensorShape::new(1, 3, 16, 16));
        let c = b.layer("c", conv(8), &[]).unwrap();
        b.layer_on("r", LayerKind::Relu, c).unwrap();
        let net = b.finish();
        assert_eq!(
            net.total_flops(),
            net.layers()[0].flops + net.layers()[1].flops
        );
        assert!(net.total_bytes() > 0);
    }

    #[test]
    fn work_profile_spans_op_classes() {
        let cost = CostModel::calibrated();
        let mut b = NetworkBuilder::new("t", TensorShape::new(1, 3, 16, 16));
        let c = b.layer("c", conv(8), &[]).unwrap();
        b.layer_on("r", LayerKind::Relu, c).unwrap();
        let net = b.finish();
        let p = net.work_profile(&cost);
        assert_eq!(p.segments().len(), 2);
        assert!(p.total_single_sm_ns() > 0.0);
    }
}
