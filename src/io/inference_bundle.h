#ifndef DSSDDI_IO_INFERENCE_BUNDLE_H_
#define DSSDDI_IO_INFERENCE_BUNDLE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/dssddi_system.h"
#include "data/dataset.h"
#include "graph/signed_graph.h"
#include "io/binary.h"
#include "io/mmap_file.h"
#include "io/quantized_mlp.h"
#include "tensor/kernels/qgemm.h"
#include "tensor/matrix.h"

namespace dssddi::io {

/// Frozen MLP weights with a plain-Matrix forward pass. This mirrors
/// tensor::Mlp but carries no autograd machinery, so a trained model can
/// be deployed for scoring without the training stack.
struct FrozenMlp {
  struct Layer {
    tensor::Matrix weight;  // in_features x out_features
    tensor::Matrix bias;    // 1 x out_features
    int activation = 0;     // tensor::Activation as int, for serialization
  };
  std::vector<Layer> layers;
  /// Pre-quantized int8 companion (weights + per-column scales). Empty
  /// until BuildQuantized() — bundles build or load it automatically; a
  /// hand-assembled FrozenMlp stays float-only until asked.
  QuantizedMlp quantized;

  /// y = act_L(...act_1(x W_1 + b_1)...W_L + b_L), matching Mlp::Forward.
  /// Each layer is one fused GemmBiasAct pass on the active GEMM backend
  /// (tensor/kernels/gemm_backend.h) — no intermediate bias/activation
  /// matrices are materialized. The one-argument overload follows the
  /// process-wide quantization mode (DSSDDI_QUANTIZE / SetQuantMode);
  /// pass a mode explicitly to pin the arithmetic. The int8 path runs
  /// only when `quantized` has been built, so float-only callers are
  /// never surprised.
  tensor::Matrix Forward(const tensor::Matrix& x) const;
  tensor::Matrix Forward(const tensor::Matrix& x,
                         tensor::kernels::QuantMode mode) const;

  /// (Re)derives `quantized` from the float layers. Deterministic;
  /// idempotent; cheap (one pass over the weights).
  void BuildQuantized();
};

/// InferenceBundle::quantization value meaning "follow the process-wide
/// mode" (DSSDDI_QUANTIZE / kernels::SetQuantMode). The serve layer
/// resolves it to a concrete mode once per model snapshot.
inline constexpr int kQuantizeAuto = -1;

/// Everything needed to run a trained DSSDDI system at inference time:
/// the MD module's frozen encoder/decoder, the propagated drug
/// representations (DDI embeddings already folded in), the treatment
/// cluster tables, and the DDI graph for Medical Support explanations.
///
/// The bundle round-trips through a single flat v4 file, so a model
/// trained once on the full cohort can be shipped to a clinic host and
/// queried there (`PredictScores` / `Suggest`) bit-identically to the
/// in-process system it was extracted from.
struct InferenceBundle {
  std::string display_name;
  FrozenMlp patient_fc;
  FrozenMlp decoder;
  /// |V| x hidden final drug representations (h'_v, post layer-combination
  /// and DDI-embedding addition).
  tensor::Matrix final_drug_reps;
  tensor::Matrix cluster_centroids;   // k x d1
  tensor::Matrix cluster_treatment;   // k x |V|
  graph::SignedGraph ddi;
  std::vector<std::string> drug_names;
  bool mlp_decoder = true;            // MdDecoder::kMlp vs kDotLinear
  bool use_treatment_feature = true;
  int hidden_dim = 0;
  double ms_alpha = 0.5;
  /// core::ExplainerKind as int; carried so served explanations use the
  /// same subgraph backend the system was configured with.
  int ms_explainer = 0;
  /// Runtime-only (never serialized) quantization override for this
  /// bundle: kQuantizeAuto follows the process-wide mode, otherwise a
  /// kernels::QuantMode value pins the arithmetic regardless of the
  /// environment. The serve layer sets this from ServiceOptions and the
  /// /admin/reload "quantize" field.
  int quantization = kQuantizeAuto;

  /// Non-null iff this bundle was loaded from a file: the matrices /
  /// quantized weights / skeleton above are then views into this
  /// mapping. Shared so every copy of the bundle (and the serving
  /// ModelSnapshot holding it) keeps the pages alive; the file is
  /// unmapped when the last snapshot referencing it drains.
  std::shared_ptr<MmapFile> mapping;
  /// File format the bundle was loaded from (4, the flat mmap bundle);
  /// 0 for bundles assembled in process.
  uint32_t format_version = 0;
  /// Wall-clock cost of the load that produced this bundle, stamped by
  /// LoadInferenceBundle and surfaced via /statsz and the bundle gauges.
  double load_ms = 0.0;
  /// Pre-built interaction skeleton (a CSR view into `mapping` for a
  /// loaded bundle) so serving never re-sorts the DDI edges; when absent,
  /// Skeleton() derives it from `ddi`.
  graph::Graph ms_skeleton;
  bool has_ms_skeleton = false;

  int num_drugs() const { return final_drug_reps.rows(); }
  size_t bytes_mapped() const { return mapping ? mapping->size() : 0; }

  /// The interaction skeleton the Medical Support module should run on:
  /// the stored/mapped one when present, else freshly derived.
  graph::Graph Skeleton() const {
    return has_ms_skeleton ? ms_skeleton : ddi.InteractionSkeleton();
  }

  /// The concrete mode this bundle scores with right now.
  tensor::kernels::QuantMode EffectiveQuantMode() const;
  /// Builds both MLPs' int8 companions if absent (Extract/Load already
  /// do; this covers hand-assembled bundles switched to int8 later).
  void EnsureQuantized();

  /// Sigmoid suggestion scores (|x| x |V|) for raw patient features.
  /// On the float path, bit-identical to MdModule::PredictScores on the
  /// same weights. Under int8 the two MLP passes run the quantized
  /// kernels; scores stay row-local, so batching never changes them.
  tensor::Matrix PredictScores(const tensor::Matrix& x) const;

  /// Top-k suggestion with Medical Support explanation for one patient
  /// feature row (1 x d1 matrix or the first row of a larger matrix).
  core::Suggestion Suggest(const tensor::Matrix& x, int k) const;
};

/// Extracts a frozen inference bundle from a trained system. `dataset`
/// supplies the DDI graph and drug names shown in explanations.
InferenceBundle ExtractInferenceBundle(const core::DssddiSystem& system,
                                       const data::SuggestionDataset& dataset);

/// Loads a v4 bundle file (see io/bundle_v4.h, written by
/// SaveInferenceBundleV4): maps the file, builds zero-copy views, and
/// stamps format_version / load_ms on success. A file in the retired v3
/// framed format is rejected with a Status asking for a re-export.
Status LoadInferenceBundle(const std::string& path, InferenceBundle* bundle);

}  // namespace dssddi::io

#endif  // DSSDDI_IO_INFERENCE_BUNDLE_H_
