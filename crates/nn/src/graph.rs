use crate::{Layer, NnError};
use fbcnn_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};

/// Identifier of a node inside a [`Network`].
///
/// Ids are dense indexes in topological (insertion) order; node 0 is
/// always the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// The operation a [`Node`] performs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// The network input placeholder.
    Input,
    /// A [`Layer`] applied to a single upstream node.
    Layer(Layer),
    /// Channel-wise concatenation of several upstream nodes (Inception).
    Concat,
}

/// A node of the network DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    id: NodeId,
    label: String,
    op: Op,
    inputs: Vec<NodeId>,
}

impl Node {
    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Human-readable label (e.g. `"conv1"`, `"a3.b3x3"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The operation.
    pub fn op(&self) -> &Op {
        &self.op
    }

    /// Upstream node ids feeding this node.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The layer, if this node wraps one.
    pub fn layer(&self) -> Option<&Layer> {
        match &self.op {
            Op::Layer(l) => Some(l),
            _ => None,
        }
    }

    /// Mutable access to the operation (used by the trainer to update
    /// weights in place).
    pub fn op_mut(&mut self) -> &mut Op {
        &mut self.op
    }
}

/// A feed-forward DAG of layers with shape checking at build time.
///
/// Nodes are stored in topological order (the builder only lets a node
/// reference earlier nodes), so forward execution is a single pass over
/// the node list. The last added node is the network output.
///
/// # Examples
///
/// ```
/// use fbcnn_nn::{Conv2d, NetworkBuilder};
/// use fbcnn_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), fbcnn_nn::NnError> {
/// let mut b = NetworkBuilder::new(Shape::new(1, 8, 8));
/// let x = b.input();
/// let c = b.layer(x, Conv2d::new(1, 4, 3, 1, 1, true), "conv1")?;
/// let net = b.build()?;
/// assert_eq!(net.shape(c), Shape::new(4, 8, 8));
/// let out = net.forward(&Tensor::zeros(net.input_shape()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    shapes: Vec<Shape>,
}

/// Incremental builder for [`Network`] (see [`Network`] docs for an
/// example).
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    nodes: Vec<Node>,
    shapes: Vec<Shape>,
}

impl NetworkBuilder {
    /// Starts a network with the given input shape.
    pub fn new(input_shape: Shape) -> Self {
        Self::named("network", input_shape)
    }

    /// Starts a named network with the given input shape.
    pub fn named(name: impl Into<String>, input_shape: Shape) -> Self {
        Self {
            name: name.into(),
            nodes: vec![Node {
                id: NodeId(0),
                label: "input".into(),
                op: Op::Input,
                inputs: vec![],
            }],
            shapes: vec![input_shape],
        }
    }

    /// The input node id (always `NodeId(0)`).
    pub fn input(&self) -> NodeId {
        NodeId(0)
    }

    fn check(&self, id: NodeId) -> Result<(), NnError> {
        if id.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(NnError::UnknownNode(id.0))
        }
    }

    /// Appends a layer node reading from `input`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownNode`] if `input` does not exist and
    /// [`NnError::ShapeMismatch`] if the layer rejects the upstream shape.
    pub fn layer(
        &mut self,
        input: NodeId,
        layer: impl Into<Layer>,
        label: impl Into<String>,
    ) -> Result<NodeId, NnError> {
        self.check(input)?;
        let layer = layer.into();
        let in_shape = self.shapes[input.0];
        let out_shape = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            layer.output_shape(in_shape)
        }))
        .map_err(|_| NnError::ShapeMismatch {
            expected: format!("{layer:?}"),
            actual: in_shape.to_string(),
        })?;
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            label: label.into(),
            op: Op::Layer(layer),
            inputs: vec![input],
        });
        self.shapes.push(out_shape);
        Ok(id)
    }

    /// Appends a channel-wise concat of `inputs` (Inception merge).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownNode`] for a missing input,
    /// [`NnError::ConcatShapeMismatch`] if spatial dimensions disagree or
    /// the input list is empty.
    pub fn concat(
        &mut self,
        inputs: &[NodeId],
        label: impl Into<String>,
    ) -> Result<NodeId, NnError> {
        if inputs.is_empty() {
            return Err(NnError::ConcatShapeMismatch("no inputs".into()));
        }
        for &i in inputs {
            self.check(i)?;
        }
        let first = self.shapes[inputs[0].0];
        let mut channels = 0;
        for &i in inputs {
            let s = self.shapes[i.0];
            if s.height() != first.height() || s.width() != first.width() {
                return Err(NnError::ConcatShapeMismatch(format!("{} vs {}", first, s)));
            }
            channels += s.channels();
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            label: label.into(),
            op: Op::Concat,
            inputs: inputs.to_vec(),
        });
        self.shapes
            .push(Shape::new(channels, first.height(), first.width()));
        Ok(id)
    }

    /// Finalizes the network. The last added node becomes the output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyGraph`] if no layer was added.
    pub fn build(self) -> Result<Network, NnError> {
        if self.nodes.len() < 2 {
            return Err(NnError::EmptyGraph);
        }
        Ok(Network {
            name: self.name,
            nodes: self.nodes,
            shapes: self.shapes,
        })
    }
}

impl Network {
    /// The network's name (e.g. `"lenet5"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes, including the input node.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes. Always `false` for built
    /// networks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutable node access (used by [`crate::init`] to fill weights).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// The output shape of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn shape(&self, id: NodeId) -> Shape {
        self.shapes[id.0]
    }

    /// The network input shape.
    pub fn input_shape(&self) -> Shape {
        self.shapes[0]
    }

    /// The output node (last in topological order).
    pub fn output(&self) -> NodeId {
        NodeId(self.nodes.len() - 1)
    }

    /// The output shape of the whole network.
    pub fn output_shape(&self) -> Shape {
        self.shapes[self.nodes.len() - 1]
    }

    /// Ids of all convolution nodes in topological order — the paper's
    /// `L` convolutional layers, in execution order.
    pub fn conv_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.layer().is_some_and(Layer::is_conv))
            .map(|n| n.id)
            .collect()
    }

    /// Iterates over mutable layer references (used by weight init and the
    /// trainer).
    pub fn layers_mut(&mut self) -> impl Iterator<Item = (&str, &mut Layer)> {
        self.nodes.iter_mut().filter_map(|n| {
            let Node { label, op, .. } = n;
            match op {
                Op::Layer(l) => Some((label.as_str(), l)),
                _ => None,
            }
        })
    }

    /// Evaluates one node given its resolved input tensors.
    ///
    /// This is the "default executor" that [`Network::try_forward_with`]
    /// callers can delegate to for nodes they do not override.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs does not match the node's arity.
    pub fn eval_node(&self, node: &Node, inputs: &[&Tensor]) -> Tensor {
        match &node.op {
            Op::Input => {
                assert_eq!(inputs.len(), 1, "input node takes exactly one tensor");
                inputs[0].clone()
            }
            Op::Layer(l) => {
                assert_eq!(inputs.len(), 1, "layer node takes exactly one tensor");
                l.forward(inputs[0])
            }
            Op::Concat => {
                let shape = self.shapes[node.id.0];
                let mut data = Vec::with_capacity(shape.len());
                for t in inputs {
                    data.extend_from_slice(t.as_slice());
                }
                Tensor::from_vec(shape, data)
            }
        }
    }

    /// Like [`Network::eval_node`], but layer nodes run through the fast
    /// path ([`Layer::forward_ws`]), reusing the scratch buffers in `ws`.
    /// Output has the same bits as [`Network::eval_node`], except that a
    /// NaN may differ in sign or payload (see [`crate::Conv2d::forward_ws`]).
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs does not match the node's arity.
    pub fn eval_node_ws(
        &self,
        node: &Node,
        inputs: &[&Tensor],
        ws: &mut crate::Workspace,
    ) -> Tensor {
        match &node.op {
            Op::Layer(l) => {
                assert_eq!(inputs.len(), 1, "layer node takes exactly one tensor");
                l.forward_ws(inputs[0], ws)
            }
            _ => self.eval_node(node, inputs),
        }
    }

    /// Runs the network and returns every node's output tensor, indexed by
    /// node id.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`Network::input_shape`].
    pub fn forward_full(&self, input: &Tensor) -> Vec<Tensor> {
        self.try_forward_with(input, |net, node, inputs| {
            Ok::<_, NnError>(net.eval_node(node, inputs))
        })
        .unwrap_or_else(|e| panic!("forward pass failed: {e}"))
    }

    /// Validates an input tensor against [`Network::input_shape`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the shapes differ — the
    /// check [`Network::try_forward_with`] runs first.
    pub fn check_input(&self, input: &Tensor) -> Result<(), NnError> {
        if input.shape() == self.input_shape() {
            Ok(())
        } else {
            Err(NnError::ShapeMismatch {
                expected: self.input_shape().to_string(),
                actual: input.shape().to_string(),
            })
        }
    }

    /// Runs the network with a custom per-node executor — the one graph
    /// walker every forward pass is built on.
    ///
    /// `exec` receives the network, the node, and the already-computed
    /// input tensors; it returns the node's output. Executors typically
    /// delegate to [`Network::eval_node`] and post-process (dropout),
    /// replace (skipping convolution) or screen (activation guard)
    /// selected nodes. Input-shape violations and wrong-shape executor
    /// outputs become [`NnError::ShapeMismatch`] (converted into `E`),
    /// and the first executor error aborts the pass. Infallible callers
    /// turn the error into a panic themselves.
    ///
    /// # Errors
    ///
    /// Returns the first error produced by `exec`, or a converted
    /// [`NnError`] on a shape violation.
    pub fn try_forward_with<E: From<NnError>>(
        &self,
        input: &Tensor,
        mut exec: impl FnMut(&Network, &Node, &[&Tensor]) -> Result<Tensor, E>,
    ) -> Result<Vec<Tensor>, E> {
        self.check_input(input)?;
        let mut outputs: Vec<Tensor> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let out = if matches!(node.op, Op::Input) {
                exec(self, node, &[input])?
            } else {
                let ins: Vec<&Tensor> = node.inputs.iter().map(|i| &outputs[i.0]).collect();
                exec(self, node, &ins)?
            };
            if out.shape() != self.shapes[node.id.0] {
                return Err(NnError::ShapeMismatch {
                    expected: self.shapes[node.id.0].to_string(),
                    actual: out.shape().to_string(),
                }
                .into());
            }
            outputs.push(out);
        }
        Ok(outputs)
    }

    /// Runs the network and returns the final logits.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`Network::input_shape`].
    pub fn forward(&self, input: &Tensor) -> Vec<f32> {
        self.forward_full(input)
            .pop()
            .expect("network has at least one node")
            .into_vec()
    }

    /// A human-readable layer inventory: one line per node with label,
    /// operation, output shape and parameter count.
    ///
    /// # Examples
    ///
    /// ```
    /// let net = fbcnn_nn::models::lenet5(1);
    /// let s = net.summary();
    /// assert!(s.contains("conv1"));
    /// assert!(s.contains("6x28x28"));
    /// ```
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} ({} MACs/pass)", self.name, self.total_macs());
        for node in &self.nodes {
            let shape = self.shapes[node.id.0];
            let (op, params) = match &node.op {
                Op::Input => ("input".to_string(), 0),
                Op::Concat => ("concat".to_string(), 0),
                Op::Layer(Layer::Conv(c)) => (
                    format!(
                        "conv {}x{} /{} p{}{}",
                        c.kernel_size(),
                        c.kernel_size(),
                        c.stride(),
                        c.pad(),
                        if c.has_relu() { " relu" } else { "" }
                    ),
                    c.weights().len() + c.bias().len(),
                ),
                Op::Layer(Layer::Pool(p)) => (
                    format!(
                        "{:?}pool {}x{} /{} p{}",
                        p.kind(),
                        p.window(),
                        p.window(),
                        p.stride(),
                        p.padding()
                    )
                    .to_lowercase(),
                    0,
                ),
                Op::Layer(Layer::Dense(d)) => (
                    format!(
                        "dense {}->{}{}",
                        d.in_features(),
                        d.out_features(),
                        if d.has_relu() { " relu" } else { "" }
                    ),
                    d.weights().len() + d.bias().len(),
                ),
            };
            let _ = writeln!(
                out,
                "  {:>3} {:<10} {:<20} out {:<12} params {}",
                node.id.0,
                node.label,
                op,
                shape.to_string(),
                params
            );
        }
        out
    }

    /// Total trainable parameters (convolution and dense layers).
    pub fn total_params(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                Op::Layer(Layer::Conv(c)) => (c.weights().len() + c.bias().len()) as u64,
                Op::Layer(Layer::Dense(d)) => (d.weights().len() + d.bias().len()) as u64,
                _ => 0,
            })
            .sum()
    }

    /// Total multiply-accumulates of one full inference pass (convolution
    /// and dense layers).
    pub fn total_macs(&self) -> u64 {
        let mut macs = 0u64;
        for node in &self.nodes {
            match &node.op {
                Op::Layer(Layer::Conv(c)) => {
                    let out = self.shapes[node.id.0];
                    macs += (c.macs_per_neuron() * out.len()) as u64;
                }
                Op::Layer(Layer::Dense(d)) => {
                    macs += (d.in_features() * d.out_features()) as u64;
                }
                _ => {}
            }
        }
        macs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Dense, Pool2d, PoolKind};

    fn tiny_net() -> Network {
        let mut b = NetworkBuilder::named("tiny", Shape::new(1, 4, 4));
        let x = b.input();
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, true);
        conv.set_weight(0, 0, 1, 1, 1.0);
        conv.set_weight(1, 0, 1, 1, -1.0);
        let c = b.layer(x, conv, "conv1").unwrap();
        let p = b
            .layer(c, Pool2d::new(PoolKind::Max, 2, 2), "pool1")
            .unwrap();
        let mut fc = Dense::new(8, 3, false);
        fc.weights_mut()[0] = 1.0;
        b.layer(p, fc, "fc").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn sequential_forward() {
        let net = tiny_net();
        let input = Tensor::from_fn(Shape::new(1, 4, 4), |_, r, c| (r * 4 + c) as f32);
        let logits = net.forward(&input);
        assert_eq!(logits.len(), 3);
        // conv ch0 = identity, maxpool picks 5; fc out0 reads it.
        assert_eq!(logits[0], 5.0);
        // conv ch1 is -identity then ReLU = all zero.
        assert_eq!(logits[1], 0.0);
    }

    #[test]
    fn forward_full_exposes_intermediates() {
        let net = tiny_net();
        let input = Tensor::full(Shape::new(1, 4, 4), 1.0);
        let acts = net.forward_full(&input);
        assert_eq!(acts.len(), net.len());
        assert_eq!(acts[1].shape(), Shape::new(2, 4, 4));
        assert_eq!(acts[2].shape(), Shape::new(2, 2, 2));
    }

    #[test]
    fn concat_merges_channels() {
        let mut b = NetworkBuilder::new(Shape::new(1, 4, 4));
        let x = b.input();
        let mut id1 = Conv2d::new(1, 2, 1, 1, 0, false);
        id1.set_weight(0, 0, 0, 0, 1.0);
        id1.set_weight(1, 0, 0, 0, 2.0);
        let a = b.layer(x, id1, "a").unwrap();
        let mut id2 = Conv2d::new(1, 3, 1, 1, 0, false);
        id2.set_weight(0, 0, 0, 0, 3.0);
        let c = b.layer(x, id2, "c").unwrap();
        let merged = b.concat(&[a, c], "cat").unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.shape(merged), Shape::new(5, 4, 4));
        let out = net.forward_full(&Tensor::full(Shape::new(1, 4, 4), 1.0));
        let cat = &out[merged.0];
        assert_eq!(cat[(0, 0, 0)], 1.0);
        assert_eq!(cat[(1, 0, 0)], 2.0);
        assert_eq!(cat[(2, 0, 0)], 3.0);
        assert_eq!(cat[(4, 0, 0)], 0.0);
    }

    #[test]
    fn concat_rejects_mismatched_spatial() {
        let mut b = NetworkBuilder::new(Shape::new(1, 4, 4));
        let x = b.input();
        let a = b.layer(x, Conv2d::new(1, 1, 1, 1, 0, false), "a").unwrap();
        let p = b.layer(x, Pool2d::new(PoolKind::Max, 2, 2), "p").unwrap();
        assert!(matches!(
            b.concat(&[a, p], "bad"),
            Err(NnError::ConcatShapeMismatch(_))
        ));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = NetworkBuilder::new(Shape::new(1, 4, 4));
        assert!(matches!(
            b.layer(NodeId(7), Conv2d::new(1, 1, 1, 1, 0, false), "x"),
            Err(NnError::UnknownNode(7))
        ));
    }

    #[test]
    fn empty_graph_rejected() {
        let b = NetworkBuilder::new(Shape::new(1, 4, 4));
        assert_eq!(b.build().unwrap_err(), NnError::EmptyGraph);
    }

    #[test]
    fn shape_mismatch_reported_at_build_time() {
        let mut b = NetworkBuilder::new(Shape::new(1, 4, 4));
        let x = b.input();
        assert!(matches!(
            b.layer(x, Conv2d::new(3, 1, 3, 1, 1, false), "bad"),
            Err(NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn conv_nodes_in_topo_order() {
        let net = tiny_net();
        let convs = net.conv_nodes();
        assert_eq!(convs, vec![NodeId(1)]);
    }

    #[test]
    fn hook_can_mutate_outputs() {
        let net = tiny_net();
        let input = Tensor::full(Shape::new(1, 4, 4), 1.0);
        let acts = net
            .try_forward_with::<NnError>(&input, |net, node, ins| {
                let mut out = net.eval_node(node, ins);
                if node.layer().is_some_and(Layer::is_conv) {
                    out.map_inplace(|_| 0.0);
                }
                Ok(out)
            })
            .unwrap();
        assert!(acts[1].iter().all(|&v| v == 0.0));
        // Downstream nodes see the zeroed tensor.
        assert!(acts[3].as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn check_input_reports_shape_mismatch() {
        let net = tiny_net();
        assert_eq!(net.check_input(&Tensor::zeros(Shape::new(1, 4, 4))), Ok(()));
        let err = net
            .check_input(&Tensor::zeros(Shape::new(2, 4, 4)))
            .unwrap_err();
        assert!(matches!(err, NnError::ShapeMismatch { .. }));
    }

    #[test]
    fn try_forward_matches_forward_on_success() {
        let net = tiny_net();
        let input = Tensor::from_fn(Shape::new(1, 4, 4), |_, r, c| (r + c) as f32);
        let plain = net.forward_full(&input);
        let tried: Vec<Tensor> = net
            .try_forward_with::<NnError>(&input, |net, node, ins| Ok(net.eval_node(node, ins)))
            .unwrap();
        assert_eq!(plain, tried);
    }

    #[test]
    fn try_forward_propagates_executor_errors() {
        let net = tiny_net();
        let input = Tensor::zeros(Shape::new(1, 4, 4));
        let err = net
            .try_forward_with::<NnError>(&input, |net, node, ins| {
                if node.label() == "pool1" {
                    Err(NnError::UnknownNode(99))
                } else {
                    Ok(net.eval_node(node, ins))
                }
            })
            .unwrap_err();
        assert_eq!(err, NnError::UnknownNode(99));
    }

    #[test]
    fn try_forward_rejects_bad_input_shape_without_panicking() {
        let net = tiny_net();
        let input = Tensor::zeros(Shape::new(3, 4, 4));
        let err = net
            .try_forward_with::<NnError>(&input, |net, node, ins| Ok(net.eval_node(node, ins)))
            .unwrap_err();
        assert!(matches!(err, NnError::ShapeMismatch { .. }));
    }

    #[test]
    fn try_forward_rejects_wrong_executor_output_shape() {
        let net = tiny_net();
        let input = Tensor::zeros(Shape::new(1, 4, 4));
        let err = net
            .try_forward_with::<NnError>(&input, |net, node, ins| {
                if node.label() == "conv1" {
                    Ok(Tensor::zeros(Shape::new(1, 1, 1)))
                } else {
                    Ok(net.eval_node(node, ins))
                }
            })
            .unwrap_err();
        assert!(matches!(err, NnError::ShapeMismatch { .. }));
    }

    #[test]
    fn total_macs_counts_conv_and_dense() {
        let net = tiny_net();
        // conv: 2 out ch * 16 positions * 9 macs = 288; fc: 8*3 = 24.
        assert_eq!(net.total_macs(), 288 + 24);
    }

    #[test]
    fn summary_lists_every_node() {
        let net = tiny_net();
        let s = net.summary();
        assert_eq!(s.lines().count(), net.len() + 1);
        assert!(s.contains("conv 3x3 /1 p1 relu"));
        assert!(s.contains("maxpool 2x2 /2 p0"));
        assert!(s.contains("dense 8->3"));

        // A padded pool shows its padding like a conv does.
        let mut b = NetworkBuilder::named("padded", Shape::new(1, 4, 4));
        let x = b.input();
        let pool = Pool2d::new(PoolKind::Max, 3, 1).with_pad(1);
        let p = b.layer(x, pool, "pool1").unwrap();
        b.layer(p, Dense::new(16, 2, false), "fc").unwrap();
        let s = b.build().unwrap().summary();
        let row = s.lines().find(|l| l.contains("pool1")).unwrap();
        assert!(row.contains("maxpool 3x3 /1 p1 "), "{row}");
        assert!(row.contains("out 1x4x4"), "{row}");
    }

    #[test]
    fn total_params_counts_weights_and_bias() {
        let net = tiny_net();
        // conv: 2*1*3*3 + 2 = 20; fc: 8*3 + 3 = 27.
        assert_eq!(net.total_params(), 47);
    }
}
