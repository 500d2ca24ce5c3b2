#include "io/quantized_mlp.h"

#include <utility>

#include "io/inference_bundle.h"
#include "util/logging.h"

namespace dssddi::io {
tensor::Matrix QuantizedMlp::Forward(const tensor::Matrix& x) const {
  tensor::kernels::QuantizedRows rows;
  tensor::Matrix h;
  const tensor::Matrix* cur = &x;
  for (const auto& layer : layers) {
    DSSDDI_CHECK(cur->cols() == layer.weights.k)
        << "quantized layer expects " << layer.weights.k << " features, got "
        << cur->cols();
    tensor::kernels::QuantizeRowsSymmetric(cur->ReadPtr(), cur->rows(),
                                           cur->cols(), &rows);
    tensor::Matrix next(cur->rows(), layer.weights.n);
    tensor::kernels::QGemmBiasAct(
        rows, layer.weights, layer.bias.ReadPtr(), next.data().data(),
        static_cast<tensor::kernels::EpilogueActivation>(layer.activation));
    h = std::move(next);
    cur = &h;
  }
  if (layers.empty()) return x;
  return h;
}

QuantizedMlp QuantizeMlp(const FrozenMlp& mlp) {
  QuantizedMlp quantized;
  quantized.layers.reserve(mlp.layers.size());
  for (const auto& layer : mlp.layers) {
    QuantizedMlp::Layer out;
    out.weights = tensor::kernels::QuantizeWeightsPerColumn(
        layer.weight.ReadPtr(), layer.weight.rows(), layer.weight.cols());
    out.bias = layer.bias;
    out.activation = layer.activation;
    out.max_abs_error = out.weights.max_abs_error;
    quantized.layers.push_back(std::move(out));
  }
  return quantized;
}

}  // namespace dssddi::io
