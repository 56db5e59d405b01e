//! Network presets: AlexNet (the paper's workload) plus VGG-16 and a tiny
//! test network as extensions.

use core::fmt;

use crate::error::ModelError;
use crate::layer::Layer;

/// A model-zoo entry: lookup name plus preset constructor.
pub(crate) type ZooEntry = (&'static str, fn() -> Network);

/// An ordered list of layers processed one at a time on the accelerator.
///
/// # Examples
///
/// ```
/// use drmap_cnn::network::Network;
///
/// let alexnet = Network::alexnet();
/// assert_eq!(alexnet.layers().len(), 8);
/// assert_eq!(alexnet.layers()[0].name, "CONV1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    name: String,
    layers: Vec<Layer>,
}

impl Network {
    /// Build a network from explicit layers.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the network is empty or any layer fails
    /// validation.
    pub fn new(name: &str, layers: Vec<Layer>) -> Result<Self, ModelError> {
        if layers.is_empty() {
            return Err(ModelError::new(format!("network {name} has no layers")));
        }
        for layer in &layers {
            layer.validate()?;
        }
        Ok(Network {
            name: name.to_owned(),
            layers,
        })
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layers in processing order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// AlexNet (Krizhevsky et al., NIPS 2012) — the paper's evaluation
    /// workload: CONV1–CONV5 and FC6–FC8 with the standard merged-tower
    /// dimensions on 227×227×3 ImageNet inputs.
    pub fn alexnet() -> Self {
        Network::new(
            "AlexNet",
            vec![
                Layer::conv("CONV1", 55, 55, 96, 3, 11, 11, 4),
                Layer::conv("CONV2", 27, 27, 256, 96, 5, 5, 1),
                Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 1),
                Layer::conv("CONV4", 13, 13, 384, 384, 3, 3, 1),
                Layer::conv("CONV5", 13, 13, 256, 384, 3, 3, 1),
                Layer::fully_connected("FC6", 9216, 4096),
                Layer::fully_connected("FC7", 4096, 4096),
                Layer::fully_connected("FC8", 4096, 1000),
            ],
        )
        .expect("AlexNet preset is valid")
    }

    /// VGG-16 (Simonyan & Zisserman, 2015) — an extension workload with
    /// much larger feature maps than AlexNet.
    pub fn vgg16() -> Self {
        Network::new(
            "VGG-16",
            vec![
                Layer::conv("CONV1_1", 224, 224, 64, 3, 3, 3, 1),
                Layer::conv("CONV1_2", 224, 224, 64, 64, 3, 3, 1),
                Layer::conv("CONV2_1", 112, 112, 128, 64, 3, 3, 1),
                Layer::conv("CONV2_2", 112, 112, 128, 128, 3, 3, 1),
                Layer::conv("CONV3_1", 56, 56, 256, 128, 3, 3, 1),
                Layer::conv("CONV3_2", 56, 56, 256, 256, 3, 3, 1),
                Layer::conv("CONV3_3", 56, 56, 256, 256, 3, 3, 1),
                Layer::conv("CONV4_1", 28, 28, 512, 256, 3, 3, 1),
                Layer::conv("CONV4_2", 28, 28, 512, 512, 3, 3, 1),
                Layer::conv("CONV4_3", 28, 28, 512, 512, 3, 3, 1),
                Layer::conv("CONV5_1", 14, 14, 512, 512, 3, 3, 1),
                Layer::conv("CONV5_2", 14, 14, 512, 512, 3, 3, 1),
                Layer::conv("CONV5_3", 14, 14, 512, 512, 3, 3, 1),
                Layer::fully_connected("FC6", 25088, 4096),
                Layer::fully_connected("FC7", 4096, 4096),
                Layer::fully_connected("FC8", 4096, 1000),
            ],
        )
        .expect("VGG-16 preset is valid")
    }

    /// AlexNet with the **original two-tower grouping** (CONV2, CONV4 and
    /// CONV5 split across the two GTX 580s in the 2012 paper): halves
    /// those layers' weight volumes and MACs relative to
    /// [`Network::alexnet`].
    pub fn alexnet_grouped() -> Self {
        Network::new(
            "AlexNet-grouped",
            vec![
                Layer::conv("CONV1", 55, 55, 96, 3, 11, 11, 4),
                Layer::conv_grouped("CONV2", 27, 27, 256, 96, 5, 5, 1, 2),
                Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 1),
                Layer::conv_grouped("CONV4", 13, 13, 384, 384, 3, 3, 1, 2),
                Layer::conv_grouped("CONV5", 13, 13, 256, 384, 3, 3, 1, 2),
                Layer::fully_connected("FC6", 9216, 4096),
                Layer::fully_connected("FC7", 4096, 4096),
                Layer::fully_connected("FC8", 4096, 1000),
            ],
        )
        .expect("grouped AlexNet preset is valid")
    }

    /// ResNet-18 (He et al., 2016) with plain layer shapes: the residual
    /// additions do not change DRAM tile traffic, so only the conv/FC
    /// shapes are modelled. The stride-2 1×1 downsample projections are
    /// included as their own layers.
    pub fn resnet18() -> Self {
        let mut layers = vec![Layer::conv("CONV1", 112, 112, 64, 3, 7, 7, 2)];
        let stages: [(usize, usize, usize); 4] =
            [(56, 64, 64), (28, 128, 64), (14, 256, 128), (7, 512, 256)];
        for (si, &(hw, ch, in_ch)) in stages.iter().enumerate() {
            let stage = si + 1;
            let stride = if stage == 1 { 1 } else { 2 };
            layers.push(Layer::conv(
                &format!("S{stage}B1_CONV1"),
                hw,
                hw,
                ch,
                in_ch,
                3,
                3,
                stride,
            ));
            layers.push(Layer::conv(
                &format!("S{stage}B1_CONV2"),
                hw,
                hw,
                ch,
                ch,
                3,
                3,
                1,
            ));
            if stage > 1 {
                layers.push(Layer::conv(
                    &format!("S{stage}B1_PROJ"),
                    hw,
                    hw,
                    ch,
                    in_ch,
                    1,
                    1,
                    stride,
                ));
            }
            layers.push(Layer::conv(
                &format!("S{stage}B2_CONV1"),
                hw,
                hw,
                ch,
                ch,
                3,
                3,
                1,
            ));
            layers.push(Layer::conv(
                &format!("S{stage}B2_CONV2"),
                hw,
                hw,
                ch,
                ch,
                3,
                3,
                1,
            ));
        }
        layers.push(Layer::fully_connected("FC", 512, 1000));
        Network::new("ResNet-18", layers).expect("ResNet-18 preset is valid")
    }

    /// MobileNetV1 (Howard et al., 2017) with the standard 224×224
    /// configuration: a stride-2 stem followed by 13 depthwise-separable
    /// blocks, each modelled as a grouped 3×3 depthwise convolution
    /// (`groups == channels`) plus a dense 1×1 pointwise convolution.
    /// Exercises layer shapes AlexNet/VGG never produce: extreme
    /// channel-grouping and 1×1 kernels at every spatial scale.
    pub(crate) fn mobilenet_v1() -> Self {
        let mut layers = vec![Layer::conv("CONV1", 112, 112, 32, 3, 3, 3, 2)];
        // (output hw, input channels, output channels, depthwise stride);
        // stride 2 halves the spatial size relative to the previous block.
        let blocks: [(usize, usize, usize, usize); 13] = [
            (112, 32, 64, 1),
            (56, 64, 128, 2),
            (56, 128, 128, 1),
            (28, 128, 256, 2),
            (28, 256, 256, 1),
            (14, 256, 512, 2),
            (14, 512, 512, 1),
            (14, 512, 512, 1),
            (14, 512, 512, 1),
            (14, 512, 512, 1),
            (14, 512, 512, 1),
            (7, 512, 1024, 2),
            (7, 1024, 1024, 1),
        ];
        for (n, &(hw, in_ch, out_ch, stride)) in blocks.iter().enumerate() {
            let b = n + 1;
            layers.push(Layer::conv_grouped(
                &format!("DW{b}"),
                hw,
                hw,
                in_ch,
                in_ch,
                3,
                3,
                stride,
                in_ch,
            ));
            layers.push(Layer::conv(
                &format!("PW{b}"),
                hw,
                hw,
                out_ch,
                in_ch,
                1,
                1,
                1,
            ));
        }
        layers.push(Layer::fully_connected("FC", 1024, 1000));
        Network::new("MobileNetV1", layers).expect("MobileNetV1 preset is valid")
    }

    /// SqueezeNet v1.1 (Iandola et al., 2016): a small stem plus eight
    /// "fire" modules, each modelled as a 1×1 squeeze convolution and two
    /// parallel expand convolutions (1×1 and 3×3) over the squeezed
    /// channels. Pooling layers move no DRAM tile traffic and are
    /// represented by the spatial-size drops between modules.
    pub fn squeezenet() -> Self {
        let mut layers = vec![Layer::conv("CONV1", 113, 113, 64, 3, 3, 3, 2)];
        // (module, output hw, input channels, squeeze, expand) — expand
        // applies to both the 1×1 and 3×3 branches; the module outputs
        // their concatenation (2 × expand channels).
        let fires: [(usize, usize, usize, usize, usize); 8] = [
            (2, 56, 64, 16, 64),
            (3, 56, 128, 16, 64),
            (4, 28, 128, 32, 128),
            (5, 28, 256, 32, 128),
            (6, 14, 256, 48, 192),
            (7, 14, 384, 48, 192),
            (8, 14, 384, 64, 256),
            (9, 14, 512, 64, 256),
        ];
        for &(m, hw, in_ch, squeeze, expand) in &fires {
            layers.push(Layer::conv(
                &format!("FIRE{m}_SQ"),
                hw,
                hw,
                squeeze,
                in_ch,
                1,
                1,
                1,
            ));
            layers.push(Layer::conv(
                &format!("FIRE{m}_E1"),
                hw,
                hw,
                expand,
                squeeze,
                1,
                1,
                1,
            ));
            layers.push(Layer::conv(
                &format!("FIRE{m}_E3"),
                hw,
                hw,
                expand,
                squeeze,
                3,
                3,
                1,
            ));
        }
        layers.push(Layer::conv("CONV10", 14, 14, 1000, 512, 1, 1, 1));
        Network::new("SqueezeNet-v1.1", layers).expect("SqueezeNet preset is valid")
    }

    /// The built-in model zoo: every preset constructor by its lookup
    /// name, in a stable order.
    pub fn zoo() -> Vec<ZooEntry> {
        vec![
            ("alexnet", Network::alexnet as fn() -> Network),
            ("alexnet-grouped", Network::alexnet_grouped),
            ("vgg16", Network::vgg16),
            ("resnet18", Network::resnet18),
            ("mobilenet", Network::mobilenet_v1),
            ("squeezenet", Network::squeezenet),
            ("tiny", Network::tiny),
        ]
    }

    /// Look up a preset network by its zoo name (case-insensitive).
    pub fn by_name(name: &str) -> Option<Network> {
        let name = name.to_ascii_lowercase();
        Network::zoo()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, build)| build())
    }

    /// A tiny three-layer network for fast tests and examples.
    pub fn tiny() -> Self {
        Network::new(
            "TinyNet",
            vec![
                Layer::conv("CONV1", 16, 16, 16, 3, 3, 3, 1),
                Layer::conv("CONV2", 8, 8, 32, 16, 3, 3, 2),
                Layer::fully_connected("FC3", 2048, 10),
            ],
        )
        .expect("TinyNet preset is valid")
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} layers)", self.name, self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Multiply-accumulate operations per image: the figure the zoo's
    /// shapes are checked against.
    fn total_macs(net: &Network) -> u64 {
        net.layers()
            .iter()
            .map(|l| l.ofms_elems() * (l.p * l.q * (l.i / l.groups)) as u64)
            .sum()
    }

    #[test]
    fn alexnet_layer_dims_match_paper() {
        let net = Network::alexnet();
        let l = net.layers();
        assert_eq!(l[0].ifm_h(), 227);
        assert_eq!(l[1].j, 256);
        assert_eq!(l[4].name, "CONV5");
        assert_eq!(l[4].j, 256);
        // FC6 weights: 9216 * 4096 ≈ 37.7M.
        assert_eq!(l[5].wghs_elems(), 37_748_736);
        assert_eq!(l[7].j, 1000);
    }

    #[test]
    fn alexnet_macs_are_about_1_1g() {
        // Merged-tower AlexNet (no grouped convolutions) is ~1.13 GMACs;
        // the often-quoted 724M figure assumes the original 2-GPU grouping.
        let net = Network::alexnet();
        let total = total_macs(&net);
        assert!(total > 1_000_000_000, "{total}");
        assert!(total < 1_250_000_000, "{total}");
    }

    #[test]
    fn vgg16_is_much_bigger_than_alexnet() {
        let vgg = Network::vgg16();
        let alex = Network::alexnet();
        assert!(total_macs(&vgg) > 10 * total_macs(&alex));
        assert_eq!(vgg.layers().len(), 16);
    }

    #[test]
    fn tiny_network_is_small() {
        let t = Network::tiny();
        assert!(total_macs(&t) < 3_000_000);
        // FC3 input matches CONV2 output volume: 8*8*32 = 2048.
        assert_eq!(t.layers()[1].ofms_elems(), t.layers()[2].ifms_elems());
    }

    #[test]
    fn grouped_alexnet_matches_the_724m_figure() {
        let g = Network::alexnet_grouped();
        let macs = total_macs(&g);
        // The canonical grouped-AlexNet figure is ~724 M MACs.
        assert!(macs > 650_000_000 && macs < 800_000_000, "{macs}");
        assert!(macs < total_macs(&Network::alexnet()));
        // CONV2 weights halve under grouping: 5*5*48*256.
        assert_eq!(g.layers()[1].wghs_elems(), 5 * 5 * 48 * 256);
    }

    #[test]
    fn resnet18_has_expected_structure() {
        let r = Network::resnet18();
        // 1 stem + 4 stages * 4 convs + 3 projections + 1 FC = 21 layers.
        assert_eq!(r.layers().len(), 21);
        assert_eq!(r.layers()[0].name, "CONV1");
        assert!(r.layers().iter().any(|l| l.name == "S4B2_CONV2"));
        assert!(r.layers().iter().any(|l| l.name == "S2B1_PROJ"));
        // ~1.8 GMACs is the canonical figure.
        let macs = total_macs(&r);
        assert!(macs > 1_500_000_000 && macs < 2_100_000_000, "{macs}");
    }

    #[test]
    fn mobilenet_shapes_and_macs() {
        let m = Network::mobilenet_v1();
        // 1 stem + 13 * (depthwise + pointwise) + 1 FC = 28 layers.
        assert_eq!(m.layers().len(), 28);
        // Every depthwise layer is fully grouped.
        for l in m.layers().iter().filter(|l| l.name.starts_with("DW")) {
            assert_eq!(l.groups, l.i);
            assert_eq!(l.i, l.j);
        }
        // Every pointwise layer is a dense 1×1 convolution.
        for l in m.layers().iter().filter(|l| l.name.starts_with("PW")) {
            assert_eq!((l.p, l.q, l.groups), (1, 1, 1));
        }
        // The canonical MobileNetV1 figure is ~569 M MACs.
        let macs = total_macs(&m);
        assert!(macs > 500_000_000 && macs < 640_000_000, "{macs}");
    }

    #[test]
    fn squeezenet_shapes_and_macs() {
        let s = Network::squeezenet();
        // 1 stem + 8 fire modules * 3 convs + 1 classifier = 26 layers.
        assert_eq!(s.layers().len(), 26);
        // Expand branches consume the squeezed channels.
        let sq = s.layers().iter().find(|l| l.name == "FIRE2_SQ").unwrap();
        let e3 = s.layers().iter().find(|l| l.name == "FIRE2_E3").unwrap();
        assert_eq!(e3.i, sq.j);
        // SqueezeNet v1.1 is ~350 M MACs — far smaller than AlexNet.
        let macs = total_macs(&s);
        assert!(macs > 200_000_000 && macs < 500_000_000, "{macs}");
        assert!(macs < total_macs(&Network::alexnet()));
    }

    #[test]
    fn zoo_lookup_finds_every_preset() {
        for (name, build) in Network::zoo() {
            let from_name = Network::by_name(name).expect("zoo name resolves");
            assert_eq!(from_name, build(), "zoo mismatch for {name}");
        }
        assert_eq!(
            Network::by_name("AlexNet").unwrap(),
            Network::alexnet(),
            "lookup is case-insensitive"
        );
        assert!(Network::by_name("no-such-net").is_none());
    }

    #[test]
    fn empty_network_rejected() {
        assert!(Network::new("empty", vec![]).is_err());
    }

    #[test]
    fn invalid_layer_rejected() {
        let mut bad = Layer::conv("c", 4, 4, 8, 2, 3, 3, 1);
        bad.i = 0;
        assert!(Network::new("bad", vec![bad]).is_err());
    }

    #[test]
    fn display_shows_name_and_count() {
        assert_eq!(Network::alexnet().to_string(), "AlexNet (8 layers)");
    }
}
