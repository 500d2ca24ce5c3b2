#ifndef DSSDDI_TENSOR_KERNELS_QGEMM_H_
#define DSSDDI_TENSOR_KERNELS_QGEMM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/aligned.h"
#include "tensor/kernels/gemm_backend.h"

namespace dssddi::tensor::kernels {

/// ---------------------------------------------------------------------
/// Int8 quantized GEMM: the serving-side fast path.
///
/// Scheme — chosen so the AVX2 maddubs/madd pipeline is provably
/// saturation-free and needs no per-element sign fixups or horizontal
/// reductions:
///
///   * Weights: symmetric per-output-column, 6-bit range [-63, 63]
///     (scale = max_abs / 63), quantized once offline. Stored packed for
///     the broadcast microkernel: for every 8-column tile and every
///     4-channel sub-block, 32 contiguous bytes hold [col][k] so one
///     maddubs accumulates 4 channels for 8 columns at once. A
///     per-(group, column) int32 correction table carries
///     128 * sum(weights of the group) to undo the activation
///     zero-point.
///   * Activations: dynamic, row-local, uint8 with zero point 128 and a
///     symmetric scale per 32-channel group (u8 = clamp(round(v/scale),
///     -127, 127) + 128). Group-wise (rather than whole-row) scales
///     matter for accuracy: the decoder's interaction rows are
///     outlier-dominated, and a 32-lane group confines each outlier to
///     its own scale.
///
/// Saturation proof: u8 in [1, 255] times s8 in [-63, 63] gives
/// adjacent-pair sums <= 2 * 255 * 63 = 32130, strictly inside int16;
/// a group's int32 accumulation stays under 2^24, so the one
/// int32->float conversion per group is exact.
///
/// Each group accumulates exactly in int32, subtracts its zero-point
/// correction, and is fused-multiply-added by the group's activation
/// scale into a per-column float accumulator (the column scale
/// multiplies last). The scalar and AVX2 kernels follow the identical
/// order, so results are ISA-independent bits, and a row's scores never
/// change when it is batched with other rows (activation quantization
/// is row-local).
/// ---------------------------------------------------------------------

/// Channels per activation-scale group AND the k-dimension padding of
/// every packed buffer: one AVX2 vector of int8 lanes. Padded channels
/// hold zero weight, so they contribute nothing.
inline constexpr int kQuantKAlign = 32;
inline constexpr int kQuantGroup = kQuantKAlign;
/// Columns per packed weight tile (one int32 lane per column).
inline constexpr int kQuantColTile = 8;
/// The activation zero point (uint8).
inline constexpr int kQuantZeroPoint = 128;
/// Quantized weight magnitude bound. 63 (not 127) is what makes the
/// u8 x s8 maddubs saturation-free without per-element sign tricks; the
/// measured top-1 agreement cost on the bench cohort is zero.
inline constexpr int kQuantWeightMax = 63;

inline constexpr int QuantPaddedK(int k) {
  return (k + kQuantKAlign - 1) / kQuantKAlign * kQuantKAlign;
}
inline constexpr int QuantPaddedN(int n) {
  return (n + kQuantColTile - 1) / kQuantColTile * kQuantColTile;
}

/// Layers narrower than this many output columns stay on the float path
/// even in int8 mode (see FrozenMlp::Forward): a quantized GEMV — the
/// MLP logit head, n == 1 — cannot amortize the per-row activation
/// quantization over enough columns to win, and its output precision
/// directly gates the final ranking.
inline constexpr int kQuantMinColumns = 8;

/// Frozen weights quantized per output column and packed for the
/// broadcast microkernel (layout documented above; n is padded to the
/// column tile with zero columns, k to the group size with zero
/// channels).
struct QuantizedWeights {
  int k = 0;         // contraction length (rows of the float weight)
  int n = 0;         // real output columns
  int k_padded = 0;  // k rounded up to kQuantKAlign
  int n_padded = 0;  // n rounded up to kQuantColTile
  /// Packed tiles: n_padded/8 tiles x (k_padded/4 sub-blocks x 32 B).
  /// Byte (tile t, sub s, col c, lane q) = q8[k = 4s+q][col = 8t+c].
  AlignedInt8Vector data;
  std::vector<float> scales;  // n_padded (padding columns have scale 0)
  /// Zero-point corrections: num_groups rows x n_padded columns;
  /// entry (g, j) = 128 * sum over group g of q8[k][j].
  std::vector<int32_t> col_corrections;
  /// Max |w - dequant(quant(w))| observed across the whole weight —
  /// surfaced per layer in ServiceStats / /statsz so operators can see
  /// the quantization error they are serving with.
  float max_abs_error = 0.0f;

  /// View mode (bundle v4): non-null pointers into externally owned
  /// memory — the mmap'd file stores the packed tile layout directly,
  /// so serving int8 weights needs no repack and no copy. The owning
  /// vectors stay empty; the kernels read through the accessors below.
  /// The mapped memory must outlive this struct (the serving snapshot
  /// pins the mapping). All sizes remain derivable from k/n.
  const signed char* data_view = nullptr;
  const float* scales_view = nullptr;
  const int32_t* corrections_view = nullptr;

  const signed char* packed_data() const {
    return data_view != nullptr ? data_view : data.data();
  }
  const float* scale_data() const {
    return scales_view != nullptr ? scales_view : scales.data();
  }
  const int32_t* correction_data() const {
    return corrections_view != nullptr ? corrections_view
                                       : col_corrections.data();
  }
  /// Packed payload size in bytes: n_padded/8 tiles of k_padded*8 bytes.
  size_t packed_size() const {
    return static_cast<size_t>(n_padded) * k_padded;
  }

  bool empty() const { return n == 0; }
  int num_groups() const { return k_padded / kQuantGroup; }
};

/// Activations quantized per row (uint8, zero point 128) with dynamic
/// symmetric group scales, packed row-major with the weights' k padding
/// (padding lanes hold the zero point).
struct QuantizedRows {
  int m = 0;
  int k = 0;
  int k_padded = 0;
  int num_groups = 0;          // k_padded / kQuantGroup
  AlignedByteVector data;      // m rows x k_padded, row i at i*k_padded
  /// m x num_groups dequantization scales; row i group g at
  /// i * num_groups + g. A group whose real channels are all zero (or
  /// pure padding) has scale 0 and all-zero-point bytes.
  std::vector<float> scales;
};

/// Quantizes a row-major k x n float weight matrix per output column
/// into the packed kernel layout. All-zero columns get scale 0 and
/// all-zero weights (the kernel then reproduces exactly
/// bias -> activation for that output).
QuantizedWeights QuantizeWeightsPerColumn(const float* w, int k, int n);

/// Quantizes m row-major float rows of length k into `out` (reusing its
/// buffers when already sized), one symmetric scale per kQuantGroup
/// channels. Row scales are computed independently, so a row's
/// quantized form never depends on its batch neighbours.
void QuantizeRowsSymmetric(const float* a, int m, int k, QuantizedRows* out);

/// The fused quantized MLP layer: quantized matmul plus the
/// dequantize + bias + activation epilogue in one pass.
///   c[i][j] = act(scale_w[j] * sum_g scale_a[i][g] * dot_g + bias[j])
/// where dot_g is the exact int32 dot product of group g's channels
/// (zero-point correction already applied). `c` is m x n float, fully
/// overwritten. The epilogue applies the same ActivateScalar as every
/// float backend, in the same add-then-activate order as GemmBiasAct.
void QGemmBiasAct(const QuantizedRows& a, const QuantizedWeights& w,
                  const float* bias, float* c, EpilogueActivation activation);

/// Same computation forced onto the portable scalar kernel regardless of
/// dispatch — the test hook proving QGemmBiasAct's bits do not depend on
/// the ISA the process happens to run on.
void QGemmBiasActPortable(const QuantizedRows& a, const QuantizedWeights& w,
                          const float* bias, float* c,
                          EpilogueActivation activation);

/// "int8/avx2" or "int8/scalar" — which int8 microkernel this process
/// dispatches to. Reported alongside GFLOP/s in bench output.
const char* QGemmKernelName();

/// ---------------------------------------------------------------------
/// Process-wide quantization mode, mirroring the GEMM backend registry.
/// The initial value comes from DSSDDI_QUANTIZE on first use ("none"
/// when unset or unrecognized; "int8" enables the quantized serving
/// path). Serving snapshots resolve the mode once at snapshot creation,
/// so a mid-flight SetQuantMode never changes the arithmetic of a model
/// generation already being served.
/// ---------------------------------------------------------------------

enum class QuantMode : int {
  kNone = 0,
  kInt8 = 1,
};

QuantMode ActiveQuantMode();
const char* QuantModeName(QuantMode mode);

/// Accepts "none", "float" (alias of none) and "int8"; returns false
/// (and changes nothing) for anything else.
bool SetQuantMode(const std::string& name);
/// Parses a mode name without touching the process-wide selection.
bool ParseQuantMode(const std::string& name, QuantMode* mode);

inline constexpr char kQuantizeEnvVar[] = "DSSDDI_QUANTIZE";

}  // namespace dssddi::tensor::kernels

#endif  // DSSDDI_TENSOR_KERNELS_QGEMM_H_
