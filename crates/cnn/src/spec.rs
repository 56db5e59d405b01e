//! A compact, line-oriented network description format.
//!
//! The job-server and batch CLI accept workloads beyond the built-in
//! zoo; this module parses (and renders) a plain-text spec so custom
//! networks can live in version-controlled files:
//!
//! ```text
//! # anything after '#' is a comment
//! network my-edge-model
//! conv  CONV1 55 55 96 3 11 11 4     # name h w j i p q stride
//! gconv DW1   55 55 96 96 3 3 1 96   # name h w j i p q stride groups
//! fc    FC2   4096 1000              # name inputs outputs
//! ```
//!
//! # Examples
//!
//! ```
//! use drmap_cnn::spec::{parse_network, render_network};
//!
//! let spec = "network two-layer\nconv C1 8 8 16 3 3 3 1\nfc F2 1024 10\n";
//! let net = parse_network(spec)?;
//! assert_eq!(net.name(), "two-layer");
//! assert_eq!(net.layers().len(), 2);
//! assert_eq!(parse_network(&render_network(&net))?, net);
//! # Ok::<(), drmap_cnn::error::ModelError>(())
//! ```

use crate::error::ModelError;
use crate::layer::{Layer, LayerKind};
use crate::network::Network;

fn parse_dim(line_no: usize, field: &str, value: &str) -> Result<usize, ModelError> {
    value.parse().map_err(|_| {
        ModelError::new(format!(
            "spec line {line_no}: {field} must be a positive integer, got {value:?}"
        ))
    })
}

/// Parse a network from the line-oriented spec format.
///
/// # Errors
///
/// Returns [`ModelError`] naming the offending line for unknown
/// directives, wrong field counts, non-numeric dimensions, or a network
/// that fails [`Network::new`] validation.
pub fn parse_network(text: &str) -> Result<Network, ModelError> {
    let mut name: Option<String> = None;
    let mut layers = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let args = &fields[1..];
        match fields[0] {
            "network" => {
                if args.len() != 1 {
                    return Err(ModelError::new(format!(
                        "spec line {line_no}: expected `network <name>`"
                    )));
                }
                name = Some(args[0].to_owned());
            }
            directive @ ("conv" | "gconv") => {
                let want = if directive == "conv" { 8 } else { 9 };
                if args.len() != want {
                    return Err(ModelError::new(format!(
                        "spec line {line_no}: `{directive}` takes {want} fields, got {}",
                        args.len()
                    )));
                }
                let mut dims = [0usize; 8];
                for (slot, (field, value)) in dims.iter_mut().zip(
                    ["h", "w", "j", "i", "p", "q", "stride", "groups"]
                        .iter()
                        .zip(&args[1..]),
                ) {
                    *slot = parse_dim(line_no, field, value)?;
                }
                let [h, w, j, i, p, q, stride, groups] = dims;
                let layer = if directive == "conv" {
                    Layer::conv(args[0], h, w, j, i, p, q, stride)
                } else {
                    if groups == 0 || !i.is_multiple_of(groups) || !j.is_multiple_of(groups) {
                        return Err(ModelError::new(format!(
                            "spec line {line_no}: groups ({groups}) must divide i ({i}) and j ({j})"
                        )));
                    }
                    Layer::conv_grouped(args[0], h, w, j, i, p, q, stride, groups)
                };
                layers.push(layer);
            }
            "fc" => {
                if args.len() != 3 {
                    return Err(ModelError::new(format!(
                        "spec line {line_no}: `fc` takes 3 fields (name inputs outputs), got {}",
                        args.len()
                    )));
                }
                let inputs = parse_dim(line_no, "inputs", args[1])?;
                let outputs = parse_dim(line_no, "outputs", args[2])?;
                layers.push(Layer::fully_connected(args[0], inputs, outputs));
            }
            other => {
                return Err(ModelError::new(format!(
                    "spec line {line_no}: unknown directive {other:?} \
                     (expected network/conv/gconv/fc)"
                )));
            }
        }
    }
    let name = name.ok_or_else(|| ModelError::new("spec has no `network <name>` line"))?;
    Network::new(&name, layers)
}

/// Render a network back into the spec format parsed by
/// [`parse_network`]. Round-trips exactly for any valid network whose
/// name and layer names contain no whitespace or `#`.
pub fn render_network(network: &Network) -> String {
    let mut out = format!("network {}\n", network.name());
    for layer in network.layers() {
        match layer.kind {
            LayerKind::FullyConnected => {
                out.push_str(&format!("fc {} {} {}\n", layer.name, layer.i, layer.j));
            }
            LayerKind::Conv if layer.groups == 1 => {
                out.push_str(&format!(
                    "conv {} {} {} {} {} {} {} {}\n",
                    layer.name, layer.h, layer.w, layer.j, layer.i, layer.p, layer.q, layer.stride
                ));
            }
            LayerKind::Conv => {
                out.push_str(&format!(
                    "gconv {} {} {} {} {} {} {} {} {}\n",
                    layer.name,
                    layer.h,
                    layer.w,
                    layer.j,
                    layer.i,
                    layer.p,
                    layer.q,
                    layer.stride,
                    layer.groups
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_three_directives() {
        let net = parse_network(
            "# header comment\n\
             network mixed\n\
             conv C1 13 13 384 256 3 3 1\n\
             gconv DW 13 13 384 384 3 3 1 384  # depthwise\n\
             fc F 4096 1000\n",
        )
        .unwrap();
        assert_eq!(net.name(), "mixed");
        assert_eq!(net.layers().len(), 3);
        assert_eq!(net.layers()[1].groups, 384);
        assert_eq!(net.layers()[2].ofms_elems(), 1000);
    }

    #[test]
    fn round_trips_every_zoo_network() {
        for (name, build) in Network::zoo() {
            let net = build();
            let reparsed = parse_network(&render_network(&net)).unwrap();
            assert_eq!(reparsed, net, "round-trip failed for {name}");
        }
    }

    #[test]
    fn errors_name_the_line() {
        let err = parse_network("network x\nconv C1 13 13\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = parse_network("network x\nwat C1 1 1\n").unwrap_err();
        assert!(err.to_string().contains("wat"), "{err}");
        let err = parse_network("conv C1 1 1 1 1 1 1 1\n").unwrap_err();
        assert!(err.to_string().contains("no `network"), "{err}");
    }

    #[test]
    fn rejects_bad_numbers_and_groups() {
        let err = parse_network("network x\nconv C1 a 1 1 1 1 1 1\n").unwrap_err();
        assert!(err.to_string().contains('h'), "{err}");
        let err = parse_network("network x\ngconv C1 1 1 5 5 1 1 1 2\n").unwrap_err();
        assert!(err.to_string().contains("groups"), "{err}");
    }

    #[test]
    fn empty_spec_is_rejected() {
        assert!(parse_network("network empty\n").is_err());
        assert!(parse_network("").is_err());
    }
}
