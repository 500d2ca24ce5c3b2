// Quantization numerics: per-column round-trip error bounds, the int8
// GEMM against the float reference oracle (including edge shapes, zero
// columns and saturating inputs), ISA-independence of the kernel bits,
// determinism of the quantizer, and the fused dequantize+bias+activation
// epilogue.

#include <cmath>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/aligned.h"
#include "tensor/kernels/gemm_backend.h"
#include "tensor/kernels/qgemm.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace dssddi::tensor::kernels {
namespace {

Matrix RandomMatrix(int rows, int cols, util::Rng& rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (float& v : m.data()) v = static_cast<float>(rng.Normal(0.0, scale));
  return m;
}

/// The column-major int8 values (k per column, column j first) read back
/// out of the packed tile layout documented in qgemm.h: byte (sub s,
/// col c, lane q) of a tile holds w[k = 4s + q][c].
std::vector<signed char> Unpacked(const QuantizedWeights& w) {
  std::vector<signed char> columns(static_cast<size_t>(w.k) * w.n, 0);
  const size_t tile_bytes = static_cast<size_t>(w.k_padded) * kQuantColTile;
  for (int j = 0; j < w.n; ++j) {
    const signed char* tile = w.packed_data() + (j / kQuantColTile) * tile_bytes;
    const int col_in_tile = j % kQuantColTile;
    for (int p = 0; p < w.k; ++p) {
      columns[static_cast<size_t>(j) * w.k + p] =
          tile[static_cast<size_t>(p / 4) * 32 + col_in_tile * 4 + p % 4];
    }
  }
  return columns;
}

/// High-precision oracle for one fused output element: group int32 dots
/// of (a_u8 - 128) x w_s8 are exact, so computing the scaled
/// combination in double isolates the kernel's (tiny, fixed-order)
/// float rounding.
double OracleElement(const QuantizedRows& a, int row,
                     const std::vector<signed char>& w_columns,
                     const QuantizedWeights& w, int col, float bias,
                     EpilogueActivation act) {
  const unsigned char* ap = a.data.data() + static_cast<size_t>(row) * a.k_padded;
  double acc = 0.0;
  for (int g = 0; g < a.num_groups; ++g) {
    int64_t dot = 0;
    for (int p = g * kQuantGroup; p < std::min((g + 1) * kQuantGroup, w.k); ++p) {
      dot += static_cast<int64_t>(static_cast<int>(ap[p]) - kQuantZeroPoint) *
             w_columns[static_cast<size_t>(col) * w.k + p];
    }
    acc += static_cast<double>(a.scales[static_cast<size_t>(row) * a.num_groups + g]) *
           static_cast<double>(dot);
  }
  return ActivateScalar(static_cast<float>(acc * w.scales[col] + bias), act);
}

TEST(QuantizeWeightsTest, PerColumnRoundTripErrorIsBounded) {
  util::Rng rng(11);
  const int k = 37, n = 19;
  const Matrix w = RandomMatrix(k, n, rng, 2.5);
  const QuantizedWeights q = QuantizeWeightsPerColumn(w.data().data(), k, n);
  const std::vector<signed char> columns = Unpacked(q);

  ASSERT_EQ(q.k, k);
  ASSERT_EQ(q.n, n);
  ASSERT_EQ(q.k_padded % kQuantKAlign, 0);
  ASSERT_EQ(q.n_padded % kQuantColTile, 0);
  float observed_max_err = 0.0f;
  for (int j = 0; j < n; ++j) {
    float max_abs = 0.0f;
    for (int p = 0; p < k; ++p) max_abs = std::max(max_abs, std::fabs(w.At(p, j)));
    // Symmetric 6-bit scale: the worst representable gap is
    // scale/2 = max / (2 * kQuantWeightMax).
    const float bound = max_abs / (2.0f * kQuantWeightMax) * 1.0001f;
    for (int p = 0; p < k; ++p) {
      const signed char qv = columns[static_cast<size_t>(j) * k + p];
      EXPECT_GE(qv, -kQuantWeightMax);
      EXPECT_LE(qv, kQuantWeightMax);
      const float err = std::fabs(w.At(p, j) - qv * q.scales[j]);
      EXPECT_LE(err, bound) << "column " << j << " row " << p;
      observed_max_err = std::max(observed_max_err, err);
    }
    // The zero-point correction table must agree with the packed bytes.
    for (int g = 0; g < q.num_groups(); ++g) {
      int32_t expected = 0;
      for (int p = g * kQuantGroup; p < std::min((g + 1) * kQuantGroup, k); ++p) {
        expected += kQuantZeroPoint * columns[static_cast<size_t>(j) * k + p];
      }
      EXPECT_EQ(q.col_corrections[static_cast<size_t>(g) * q.n_padded + j],
                expected)
          << "column " << j << " group " << g;
    }
  }
  EXPECT_FLOAT_EQ(q.max_abs_error, observed_max_err);
  // Padding columns carry zero scale (and contribute nothing).
  for (int j = n; j < q.n_padded; ++j) EXPECT_EQ(q.scales[j], 0.0f);
}

TEST(QuantizeWeightsTest, ZeroColumnsQuantizeExactly) {
  const int k = 8, n = 3;
  Matrix w(k, n, 0.0f);
  for (int p = 0; p < k; ++p) w.At(p, 1) = static_cast<float>(p - 4);  // col 1 nonzero
  const QuantizedWeights q = QuantizeWeightsPerColumn(w.data().data(), k, n);
  const std::vector<signed char> columns = Unpacked(q);
  EXPECT_EQ(q.scales[0], 0.0f);
  EXPECT_EQ(q.scales[2], 0.0f);
  EXPECT_GT(q.scales[1], 0.0f);
  for (int p = 0; p < k; ++p) {
    EXPECT_EQ(columns[p], 0);                              // col 0
    EXPECT_EQ(columns[2 * static_cast<size_t>(k) + p], 0);  // col 2
  }
}

TEST(QuantizeRowsTest, GroupScalesConfineOutliers) {
  // One huge value in the first group must not coarsen the second
  // group's grid — that independence is why the decoder's
  // outlier-dominated interaction rows survive 8 bits.
  const int k = 2 * kQuantGroup;
  Matrix a(1, k, 0.0f);
  for (int p = 0; p < k; ++p) a.At(0, p) = 0.01f * static_cast<float>(p % 7 - 3);
  a.At(0, 3) = 1000.0f;  // outlier in group 0
  QuantizedRows q;
  QuantizeRowsSymmetric(a.data().data(), 1, k, &q);
  ASSERT_EQ(q.num_groups, 2);
  EXPECT_FLOAT_EQ(q.scales[0], 1000.0f / 127.0f);
  EXPECT_FLOAT_EQ(q.scales[1], 0.03f / 127.0f);
  // Group 1 values round-trip with the fine scale despite the outlier.
  for (int p = kQuantGroup; p < k; ++p) {
    const float back =
        (static_cast<int>(q.data[p]) - kQuantZeroPoint) * q.scales[1];
    EXPECT_NEAR(back, a.At(0, p), 0.03f / 254.0f * 1.0001f) << "lane " << p;
  }
}

TEST(QuantizeRowsTest, RowScalesAreIndependentOfBatchNeighbours) {
  util::Rng rng(5);
  const int k = 21;
  const Matrix big = RandomMatrix(6, k, rng, 3.0);
  QuantizedRows all;
  QuantizeRowsSymmetric(big.data().data(), 6, k, &all);
  for (int i = 0; i < 6; ++i) {
    QuantizedRows solo;
    QuantizeRowsSymmetric(big.RowPtr(i), 1, k, &solo);
    for (int g = 0; g < all.num_groups; ++g) {
      EXPECT_EQ(solo.scales[g],
                all.scales[static_cast<size_t>(i) * all.num_groups + g])
          << "row " << i << " group " << g;
    }
    for (int p = 0; p < all.k_padded; ++p) {
      ASSERT_EQ(solo.data[p], all.data[static_cast<size_t>(i) * all.k_padded + p])
          << "row " << i << " lane " << p;
    }
  }
}

TEST(QGemmBiasActTest, MatchesTheGroupOracleTightly) {
  // Against the double-precision oracle over the same quantized
  // operands, only the kernel's fixed-order float combination of group
  // partial sums remains — a few ulps, bounded well below 1e-4 relative
  // for these magnitudes.
  util::Rng rng(23);
  for (const auto [m, k, n] : {std::tuple<int, int, int>{1, 1, 1},
                               {1, 65, 1},
                               {3, 31, 5},
                               {4, 32, 4},
                               {7, 96, 9},
                               {16, 64, 33}}) {
    const Matrix a = RandomMatrix(m, k, rng, 1.7);
    const Matrix w = RandomMatrix(k, n, rng, 0.8);
    const Matrix bias = RandomMatrix(1, n, rng, 0.5);
    QuantizedRows qa;
    QuantizeRowsSymmetric(a.data().data(), m, k, &qa);
    const QuantizedWeights qw = QuantizeWeightsPerColumn(w.data().data(), k, n);
    const std::vector<signed char> columns = Unpacked(qw);
    Matrix c(m, n, -1.0f);
    QGemmBiasAct(qa, qw, bias.data().data(), c.data().data(),
                 EpilogueActivation::kNone);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        const double expected = OracleElement(qa, i, columns, qw, j,
                                              bias.At(0, j),
                                              EpilogueActivation::kNone);
        const double tolerance = 1e-4 * (1.0 + std::fabs(expected));
        ASSERT_NEAR(c.At(i, j), expected, tolerance)
            << m << "x" << k << "x" << n << " at " << i << "," << j;
      }
    }
  }
}

TEST(QGemmBiasActTest, DispatchAndPortableKernelsAgreeBitForBit) {
  // Whatever kernel the process dispatches to (AVX2 here, scalar on old
  // hosts), the bits must match the portable reference: the
  // accumulation-order contract in qgemm_internal.h is the guarantee
  // that a bundle scores identically on every machine.
  util::Rng rng(41);
  for (const auto [m, k, n] : {std::tuple<int, int, int>{2752, 65, 64},
                               {5, 96, 7},
                               {1, 33, 1}}) {
    const Matrix a = RandomMatrix(m, k, rng, 2.0);
    const Matrix w = RandomMatrix(k, n, rng, 0.7);
    const Matrix bias = RandomMatrix(1, n, rng);
    QuantizedRows qa;
    QuantizeRowsSymmetric(a.data().data(), m, k, &qa);
    const QuantizedWeights qw = QuantizeWeightsPerColumn(w.data().data(), k, n);
    Matrix dispatched(m, n), portable(m, n);
    QGemmBiasAct(qa, qw, bias.data().data(), dispatched.data().data(),
                 EpilogueActivation::kLeakyRelu);
    QGemmBiasActPortable(qa, qw, bias.data().data(), portable.data().data(),
                         EpilogueActivation::kLeakyRelu);
    ASSERT_EQ(dispatched.data(), portable.data())
        << m << "x" << k << "x" << n << " via " << QGemmKernelName();
  }
}

TEST(QGemmBiasActTest, TracksTheFloatOracleWithinAnalyticBound) {
  // End-to-end quantized layer vs the float reference GemmBiasAct. The
  // element-wise error before the activation is bounded by the two
  // round-trip errors: sum_p |da_p * w_pj| + |a_p + da_p| * |dw_pj| with
  // |da_p| <= sa_g(p)/2 and |dw| <= sw_j/2. Every activation in the
  // library is 1-Lipschitz, so the bound survives the epilogue.
  util::Rng rng(31);
  const GemmBackend& reference = ReferenceGemm();
  for (const auto [m, k, n] : {std::tuple<int, int, int>{1, 1, 1},
                               {2, 65, 64},
                               {8, 64, 1},
                               {5, 17, 86}}) {
    const Matrix a = RandomMatrix(m, k, rng, 1.3);
    const Matrix w = RandomMatrix(k, n, rng, 0.6);
    const Matrix bias = RandomMatrix(1, n, rng, 0.5);
    QuantizedRows qa;
    QuantizeRowsSymmetric(a.data().data(), m, k, &qa);
    const QuantizedWeights qw = QuantizeWeightsPerColumn(w.data().data(), k, n);

    for (const auto act :
         {EpilogueActivation::kNone, EpilogueActivation::kRelu,
          EpilogueActivation::kSigmoid, EpilogueActivation::kTanh}) {
      Matrix expected(m, n), actual(m, n);
      reference.GemmBiasAct(m, k, n, a.data().data(), w.data().data(),
                            bias.data().data(), expected.data().data(), act);
      QGemmBiasAct(qa, qw, bias.data().data(), actual.data().data(), act);
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          const float sw = qw.scales[j];
          double bound = 1e-5;
          for (int p = 0; p < k; ++p) {
            const float sa =
                qa.scales[static_cast<size_t>(i) * qa.num_groups + p / kQuantGroup];
            bound += 0.5 * sa * std::fabs(w.At(p, j)) +
                     0.5 * sw * (std::fabs(a.At(i, p)) + 0.5 * sa);
          }
          EXPECT_NEAR(actual.At(i, j), expected.At(i, j), bound)
              << m << "x" << k << "x" << n << " act "
              << static_cast<int>(act) << " at " << i << "," << j;
        }
      }
    }
  }
}

TEST(QGemmBiasActTest, SaturatingInputsStayExactOnTheGrid) {
  // Inputs already on the quantization grids (activations on the
  // 127-step grid, weights on the 63-step grid) quantize losslessly, so
  // the quantized result equals the exact integer product — even at the
  // extreme corners that would saturate an unguarded maddubs
  // accumulation.
  const int k = 64;
  Matrix a(1, k), w(k, 1);
  for (int p = 0; p < k; ++p) {
    a.At(0, p) = (p % 2 == 0) ? 127.0f : -127.0f;
    w.At(p, 0) = (p % 3 == 0) ? 63.0f : -62.0f;
  }
  QuantizedRows qa;
  QuantizeRowsSymmetric(a.data().data(), 1, k, &qa);
  const QuantizedWeights qw = QuantizeWeightsPerColumn(w.data().data(), k, 1);
  for (int g = 0; g < qa.num_groups; ++g) ASSERT_EQ(qa.scales[g], 1.0f);
  ASSERT_EQ(qw.scales[0], 1.0f);

  int64_t expected = 0;
  for (int p = 0; p < k; ++p) {
    expected += static_cast<int64_t>(a.At(0, p)) * static_cast<int64_t>(w.At(p, 0));
  }
  float fused = 0.0f;
  const float bias = 0.5f;
  QGemmBiasAct(qa, qw, &bias, &fused, EpilogueActivation::kNone);
  EXPECT_FLOAT_EQ(fused, static_cast<float>(expected) + bias);
}

TEST(QGemmTest, AlignedBuffersAndKernelNameAreReported) {
  util::Rng rng(3);
  const Matrix a = RandomMatrix(5, 40, rng);
  QuantizedRows qa;
  QuantizeRowsSymmetric(a.data().data(), 5, 40, &qa);
  const QuantizedWeights qw = QuantizeWeightsPerColumn(a.data().data(), 5, 40);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(qa.data.data()) % kTensorAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(qw.data.data()) % kTensorAlignment, 0u);
  const std::string name = QGemmKernelName();
  EXPECT_TRUE(name == "int8/avx2" || name == "int8/scalar") << name;
}

TEST(QuantModeTest, RegistryParsesAndPins) {
  const QuantMode saved = ActiveQuantMode();
  QuantMode mode;
  EXPECT_TRUE(ParseQuantMode("int8", &mode));
  EXPECT_EQ(mode, QuantMode::kInt8);
  EXPECT_TRUE(ParseQuantMode("none", &mode));
  EXPECT_EQ(mode, QuantMode::kNone);
  EXPECT_TRUE(ParseQuantMode("float", &mode));
  EXPECT_EQ(mode, QuantMode::kNone);
  EXPECT_FALSE(ParseQuantMode("int4", &mode));

  EXPECT_TRUE(SetQuantMode("int8"));
  EXPECT_EQ(ActiveQuantMode(), QuantMode::kInt8);
  EXPECT_FALSE(SetQuantMode("bogus"));
  EXPECT_EQ(ActiveQuantMode(), QuantMode::kInt8);  // unchanged on failure
  EXPECT_TRUE(SetQuantMode(QuantModeName(saved)));
  EXPECT_EQ(ActiveQuantMode(), saved);
}

}  // namespace
}  // namespace dssddi::tensor::kernels
