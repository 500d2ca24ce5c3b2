#include "io/bundle_v4.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/signed_graph.h"
#include "io/inference_bundle.h"
#include "io/mmap_file.h"
#include "io/serialize.h"
#include "tensor/kernels/qgemm.h"
#include "tensor/matrix.h"
#include "util/logging.h"

namespace dssddi::io {
namespace {

// The format is little-endian and the loader hands out in-place views of
// the mapped bytes, so a big-endian host would need a byte-swapping copy
// path that does not exist. Fail the build there instead of the loads.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "bundle v4 is a little-endian in-place format");
static_assert(sizeof(int) == 4, "graph CSR views reinterpret i32 as int");

constexpr uint64_t kHeaderBytes = 32;
constexpr uint64_t kSectionEntryBytes = 32;
constexpr uint32_t kMaxSections = 64;
constexpr uint32_t kMaxLayers = 64;
constexpr uint32_t kMaxDim = 1u << 27;         // per-axis element cap
constexpr uint32_t kMaxGraphCount = 1u << 27;  // vertices / edges cap

uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

// ---------------------------------------------------------------------
// Writer side. Sections are assembled as byte strings (descriptor first,
// then 32-byte-aligned arrays), so offsets inside a section are known
// before the file layout is; the file layout then just places each
// section on the next page boundary.
// ---------------------------------------------------------------------

void AppendRaw(std::string* s, const void* data, size_t bytes) {
  s->append(static_cast<const char*>(data), bytes);
}
void AppendU32(std::string* s, uint32_t v) { AppendRaw(s, &v, sizeof v); }
void AppendI32(std::string* s, int32_t v) { AppendRaw(s, &v, sizeof v); }
void AppendU64(std::string* s, uint64_t v) { AppendRaw(s, &v, sizeof v); }
void AppendF32(std::string* s, float v) { AppendRaw(s, &v, sizeof v); }
void PadTo(std::string* s, uint64_t alignment) {
  s->resize(AlignUp(s->size(), alignment), '\0');
}
// Appends an array at the next 32-byte boundary, returning its
// section-relative offset.
uint64_t AppendArray(std::string* s, const void* data, size_t bytes) {
  PadTo(s, kBundleV4ArrayAlign);
  const uint64_t offset = s->size();
  AppendRaw(s, data, bytes);
  return offset;
}

std::string BuildMetaSection(const InferenceBundle& bundle) {
  BinaryWriter writer;
  writer.WriteString(bundle.display_name);
  writer.WriteU8(bundle.mlp_decoder ? 1 : 0);
  writer.WriteU8(bundle.use_treatment_feature ? 1 : 0);
  writer.WriteI32(bundle.hidden_dim);
  writer.WriteF64(bundle.ms_alpha);
  writer.WriteU8(static_cast<uint8_t>(bundle.ms_explainer));
  WriteStringVector(writer, bundle.drug_names);
  return writer.buffer();
}

std::string BuildMatrixSection(const tensor::Matrix& m) {
  std::string s;
  AppendU32(&s, static_cast<uint32_t>(m.rows()));
  AppendU32(&s, static_cast<uint32_t>(m.cols()));
  AppendArray(&s, m.ReadPtr(), m.size() * sizeof(float));
  return s;
}

std::string BuildMlpSection(const FrozenMlp& mlp) {
  // Descriptor: u32 layer count + 28 bytes per layer; computing the
  // array offsets needs the descriptor size, so lay the arrays out
  // virtually first, then emit descriptor and arrays to match.
  const size_t num_layers = mlp.layers.size();
  const uint64_t descriptor_bytes = 4 + 28 * num_layers;
  std::vector<std::pair<uint64_t, uint64_t>> offsets(num_layers);
  uint64_t cursor = AlignUp(descriptor_bytes, kBundleV4ArrayAlign);
  for (size_t i = 0; i < num_layers; ++i) {
    const auto& layer = mlp.layers[i];
    offsets[i].first = cursor;
    cursor = AlignUp(cursor + layer.weight.size() * sizeof(float),
                     kBundleV4ArrayAlign);
    offsets[i].second = cursor;
    cursor = AlignUp(cursor + layer.bias.size() * sizeof(float),
                     kBundleV4ArrayAlign);
  }
  std::string s;
  AppendU32(&s, static_cast<uint32_t>(num_layers));
  for (size_t i = 0; i < num_layers; ++i) {
    const auto& layer = mlp.layers[i];
    AppendU32(&s, static_cast<uint32_t>(layer.weight.rows()));
    AppendU32(&s, static_cast<uint32_t>(layer.weight.cols()));
    AppendI32(&s, layer.activation);
    AppendU64(&s, offsets[i].first);
    AppendU64(&s, offsets[i].second);
  }
  for (size_t i = 0; i < num_layers; ++i) {
    const auto& layer = mlp.layers[i];
    const uint64_t w_off =
        AppendArray(&s, layer.weight.ReadPtr(), layer.weight.size() * 4);
    DSSDDI_CHECK(w_off == offsets[i].first);
    const uint64_t b_off =
        AppendArray(&s, layer.bias.ReadPtr(), layer.bias.size() * 4);
    DSSDDI_CHECK(b_off == offsets[i].second);
  }
  return s;
}

std::string BuildQuantSection(const QuantizedMlp& mlp) {
  // Stores the packed tile layout the kernel consumes directly — it is
  // deterministic and ISA-independent (see qgemm.h), so mapped weights
  // serve with zero repacking.
  const size_t num_layers = mlp.layers.size();
  const uint64_t descriptor_bytes = 4 + 48 * num_layers;
  struct LayerOffsets {
    uint64_t data, scales, corrections, bias;
  };
  std::vector<LayerOffsets> offsets(num_layers);
  uint64_t cursor = AlignUp(descriptor_bytes, kBundleV4ArrayAlign);
  auto place = [&cursor](uint64_t bytes) {
    const uint64_t at = cursor;
    cursor = AlignUp(cursor + bytes, kBundleV4ArrayAlign);
    return at;
  };
  for (size_t i = 0; i < num_layers; ++i) {
    const auto& w = mlp.layers[i].weights;
    offsets[i].data = place(w.packed_size());
    offsets[i].scales = place(static_cast<uint64_t>(w.n_padded) * 4);
    offsets[i].corrections =
        place(static_cast<uint64_t>(w.num_groups()) * w.n_padded * 4);
    offsets[i].bias = place(static_cast<uint64_t>(w.n) * 4);
  }
  std::string s;
  AppendU32(&s, static_cast<uint32_t>(num_layers));
  for (size_t i = 0; i < num_layers; ++i) {
    const auto& layer = mlp.layers[i];
    const auto& w = layer.weights;
    AppendU32(&s, static_cast<uint32_t>(w.k));
    AppendU32(&s, static_cast<uint32_t>(w.n));
    AppendI32(&s, layer.activation);
    AppendF32(&s, layer.max_abs_error);
    AppendU64(&s, offsets[i].data);
    AppendU64(&s, offsets[i].scales);
    AppendU64(&s, offsets[i].corrections);
    AppendU64(&s, offsets[i].bias);
  }
  for (size_t i = 0; i < num_layers; ++i) {
    const auto& layer = mlp.layers[i];
    const auto& w = layer.weights;
    DSSDDI_CHECK(AppendArray(&s, w.packed_data(), w.packed_size()) ==
                 offsets[i].data);
    DSSDDI_CHECK(AppendArray(&s, w.scale_data(),
                             static_cast<size_t>(w.n_padded) * 4) ==
                 offsets[i].scales);
    DSSDDI_CHECK(
        AppendArray(&s, w.correction_data(),
                    static_cast<size_t>(w.num_groups()) * w.n_padded * 4) ==
        offsets[i].corrections);
    DSSDDI_CHECK(AppendArray(&s, layer.bias.ReadPtr(),
                             static_cast<size_t>(w.n) * 4) ==
                 offsets[i].bias);
  }
  return s;
}

std::string BuildGraphSection(const InferenceBundle& bundle) {
  const graph::SignedGraph& ddi = bundle.ddi;
  const graph::Graph skeleton = bundle.Skeleton();
  const int v_count = ddi.num_vertices();
  const int signed_edges = ddi.num_edges();
  const int skeleton_edges = skeleton.num_edges();

  const uint64_t descriptor_bytes = 16 + 5 * 8;
  uint64_t cursor = AlignUp(descriptor_bytes, kBundleV4ArrayAlign);
  auto place = [&cursor](uint64_t bytes) {
    const uint64_t at = cursor;
    cursor = AlignUp(cursor + bytes, kBundleV4ArrayAlign);
    return at;
  };
  const uint64_t signed_off = place(static_cast<uint64_t>(signed_edges) * 12);
  const uint64_t endpoints_off =
      place(static_cast<uint64_t>(skeleton_edges) * 8);
  const uint64_t offsets_off = place(static_cast<uint64_t>(v_count + 1) * 4);
  const uint64_t neighbors_off =
      place(static_cast<uint64_t>(skeleton_edges) * 8);
  const uint64_t edge_ids_off =
      place(static_cast<uint64_t>(skeleton_edges) * 8);

  std::string s;
  AppendU32(&s, static_cast<uint32_t>(v_count));
  AppendU32(&s, static_cast<uint32_t>(signed_edges));
  AppendU32(&s, static_cast<uint32_t>(skeleton_edges));
  AppendU32(&s, 0);
  AppendU64(&s, signed_off);
  AppendU64(&s, endpoints_off);
  AppendU64(&s, offsets_off);
  AppendU64(&s, neighbors_off);
  AppendU64(&s, edge_ids_off);

  PadTo(&s, kBundleV4ArrayAlign);
  DSSDDI_CHECK(s.size() == signed_off);
  for (const auto& edge : ddi.edges()) {
    AppendI32(&s, edge.u);
    AppendI32(&s, edge.v);
    AppendI32(&s, static_cast<int32_t>(edge.sign));
  }
  PadTo(&s, kBundleV4ArrayAlign);
  DSSDDI_CHECK(s.size() == endpoints_off);
  for (int e = 0; e < skeleton_edges; ++e) {
    const auto [u, v] = skeleton.Edge(e);
    AppendI32(&s, u);
    AppendI32(&s, v);
  }
  DSSDDI_CHECK(AppendArray(&s, skeleton.adj_offsets_data(),
                           static_cast<size_t>(v_count + 1) * 4) ==
               offsets_off);
  DSSDDI_CHECK(AppendArray(&s, skeleton.adj_neighbors_data(),
                           static_cast<size_t>(skeleton_edges) * 8) ==
               neighbors_off);
  DSSDDI_CHECK(AppendArray(&s, skeleton.adj_edge_ids_data(),
                           static_cast<size_t>(skeleton_edges) * 8) ==
               edge_ids_off);
  return s;
}

// ---------------------------------------------------------------------
// Loader side: bounds-checked descriptor parsing over the mapped bytes.
// Descriptors and metadata are tiny and get copied/decoded; the arrays
// never do — they are validated for extent + alignment and used in
// place.
// ---------------------------------------------------------------------

/// Little-endian cursor over a byte range with a sticky failure flag —
/// the mapped-memory analogue of BinaryReader, without the copy.
struct RawReader {
  const unsigned char* base = nullptr;
  uint64_t size = 0;
  uint64_t pos = 0;
  bool ok = true;

  bool Take(void* out, uint64_t bytes) {
    if (!ok || size - pos < bytes || pos > size) {
      ok = false;
      return false;
    }
    std::memcpy(out, base + pos, bytes);
    pos += bytes;
    return true;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Take(&v, 4);
    return v;
  }
  int32_t I32() {
    int32_t v = 0;
    Take(&v, 4);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Take(&v, 8);
    return v;
  }
  float F32() {
    float v = 0;
    Take(&v, 4);
    return v;
  }
};

struct SectionRef {
  uint32_t type = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;
  const unsigned char* data = nullptr;
};

/// Validates header + section table against the actual mapping: magic,
/// versions, recorded vs. real file size, per-entry page alignment and
/// extents (overflow-safe), duplicate types, pairwise overlap, and the
/// required-section set. O(sections) — touches only the first page.
Status ParseSectionTable(const MmapFile& mapping, const std::string& path,
                         std::vector<SectionRef>* out) {
  const auto malformed = [&path](const std::string& what) {
    return Status::Error("malformed v4 bundle (" + what + "): " + path);
  };
  if (mapping.size() < kHeaderBytes) return malformed("truncated header");
  RawReader r{mapping.data(), mapping.size()};
  const uint32_t magic = r.U32();
  const uint32_t header_version = r.U32();
  const uint32_t format_id = r.U32();
  const uint32_t bundle_version = r.U32();
  const uint64_t file_size = r.U64();
  const uint32_t section_count = r.U32();
  r.U32();  // reserved
  if (magic == kFramedFileMagic && format_id == kFormatInferenceBundle) {
    return Status::Error(
        "retired v3 bundle format (framed \"DSSD\" file) is no longer "
        "loadable; re-export the model with SaveInferenceBundleV4: " +
        path);
  }
  if (magic != kBundleV4Magic) return malformed("bad magic");
  if (header_version != kBundleV4HeaderVersion) {
    return malformed("unsupported header version");
  }
  if (format_id != kFormatInferenceBundle) {
    return malformed("not an inference bundle");
  }
  if (bundle_version != kBundleV4Version) {
    return malformed("unsupported bundle version");
  }
  if (file_size != mapping.size()) {
    return malformed("recorded size disagrees with file");
  }
  if (section_count == 0 || section_count > kMaxSections) {
    return malformed("implausible section count");
  }
  const uint64_t table_end =
      kHeaderBytes + static_cast<uint64_t>(section_count) * kSectionEntryBytes;
  if (table_end > mapping.size()) return malformed("truncated section table");

  out->clear();
  out->reserve(section_count);
  uint64_t seen_types = 0;
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionRef sec;
    sec.type = r.U32();
    r.U32();  // reserved
    sec.offset = r.U64();
    sec.length = r.U64();
    sec.checksum = r.U64();
    if (!r.ok) return malformed("truncated section table");
    if (sec.type < kSectionMeta || sec.type > kSectionGraph) {
      return malformed("unknown section type");
    }
    if (seen_types & (1u << sec.type)) return malformed("duplicate section");
    seen_types |= 1u << sec.type;
    if (sec.offset % kBundleV4SectionAlign != 0) {
      return malformed("misaligned section offset");
    }
    if (sec.offset < table_end || sec.length > mapping.size() ||
        sec.offset > mapping.size() - sec.length) {
      return malformed("section extends past end of file");
    }
    sec.data = mapping.data() + sec.offset;
    out->push_back(sec);
  }
  std::vector<const SectionRef*> by_offset;
  by_offset.reserve(out->size());
  for (const SectionRef& sec : *out) by_offset.push_back(&sec);
  std::sort(by_offset.begin(), by_offset.end(),
            [](const SectionRef* a, const SectionRef* b) {
              return a->offset < b->offset;
            });
  uint64_t prev_end = table_end;
  for (const SectionRef* sec : by_offset) {
    if (sec->offset < prev_end) return malformed("overlapping sections");
    prev_end = sec->offset + sec->length;
  }
  for (uint32_t required : {kSectionMeta, kSectionPatientMlp,
                            kSectionDecoderMlp, kSectionDrugReps,
                            kSectionCentroids, kSectionTreatment,
                            kSectionGraph}) {
    if (!(seen_types & (1u << required))) {
      return malformed("missing required section");
    }
  }
  const bool has_qp = (seen_types & (1u << kSectionQuantPatient)) != 0;
  const bool has_qd = (seen_types & (1u << kSectionQuantDecoder)) != 0;
  if (has_qp != has_qd) {
    return malformed("quantized sections must come in pairs");
  }
  return Status::Ok();
}

/// In-place array inside a section: checks 32-byte alignment (relative
/// to the page-aligned section start, so absolute alignment follows)
/// and the extent, overflow-safe. Returns nullptr on violation.
template <typename T>
const T* SectionArray(const SectionRef& sec, uint64_t offset, uint64_t count) {
  if (offset % kBundleV4ArrayAlign != 0 || offset > sec.length ||
      (sec.length - offset) / sizeof(T) < count) {
    return nullptr;
  }
  return reinterpret_cast<const T*>(sec.data + offset);
}

bool ParseMetaSection(const SectionRef& sec, InferenceBundle* bundle) {
  // Metadata is a handful of strings and scalars — the one section that
  // is copied and decoded through the existing byte-checked codec.
  const std::string blob(reinterpret_cast<const char*>(sec.data), sec.length);
  BinaryReader reader(blob);
  bundle->display_name = reader.ReadString();
  bundle->mlp_decoder = reader.ReadU8() != 0;
  bundle->use_treatment_feature = reader.ReadU8() != 0;
  bundle->hidden_dim = reader.ReadI32();
  bundle->ms_alpha = reader.ReadF64();
  bundle->ms_explainer = reader.ReadU8();
  if (!ReadStringVector(reader, &bundle->drug_names)) return false;
  return reader.ok() && reader.remaining() == 0;
}

bool ParseMlpSection(const SectionRef& sec, FrozenMlp* mlp) {
  RawReader r{sec.data, sec.length};
  const uint32_t num_layers = r.U32();
  if (!r.ok || num_layers > kMaxLayers) return false;
  mlp->quantized.layers.clear();
  mlp->layers.assign(num_layers, {});
  for (auto& layer : mlp->layers) {
    const uint32_t rows = r.U32();
    const uint32_t cols = r.U32();
    layer.activation = r.I32();
    const uint64_t weight_off = r.U64();
    const uint64_t bias_off = r.U64();
    if (!r.ok || rows > kMaxDim || cols > kMaxDim || layer.activation < 0 ||
        layer.activation > 4) {
      return false;
    }
    const float* weight = SectionArray<float>(
        sec, weight_off, static_cast<uint64_t>(rows) * cols);
    const float* bias = SectionArray<float>(sec, bias_off, cols);
    if (weight == nullptr || bias == nullptr) return false;
    layer.weight = tensor::Matrix::FromView(static_cast<int>(rows),
                                            static_cast<int>(cols), weight);
    layer.bias = tensor::Matrix::FromView(1, static_cast<int>(cols), bias);
  }
  return true;
}

bool ParseMatrixSection(const SectionRef& sec, tensor::Matrix* out) {
  RawReader r{sec.data, sec.length};
  const uint32_t rows = r.U32();
  const uint32_t cols = r.U32();
  if (!r.ok || rows > kMaxDim || cols > kMaxDim) return false;
  const float* data = SectionArray<float>(sec, kBundleV4ArrayAlign,
                                          static_cast<uint64_t>(rows) * cols);
  if (data == nullptr) return false;
  *out = tensor::Matrix::FromView(static_cast<int>(rows),
                                  static_cast<int>(cols), data);
  return true;
}

bool ParseQuantSection(const SectionRef& sec, QuantizedMlp* mlp) {
  RawReader r{sec.data, sec.length};
  const uint32_t num_layers = r.U32();
  if (!r.ok || num_layers > kMaxLayers) return false;
  mlp->layers.assign(num_layers, {});
  for (auto& layer : mlp->layers) {
    const uint32_t k = r.U32();
    const uint32_t n = r.U32();
    layer.activation = r.I32();
    layer.max_abs_error = r.F32();
    const uint64_t data_off = r.U64();
    const uint64_t scales_off = r.U64();
    const uint64_t corrections_off = r.U64();
    const uint64_t bias_off = r.U64();
    if (!r.ok || k > kMaxDim || n > kMaxDim || layer.activation < 0 ||
        layer.activation > 4 || !std::isfinite(layer.max_abs_error) ||
        layer.max_abs_error < 0.0f) {
      return false;
    }
    auto& w = layer.weights;
    w.k = static_cast<int>(k);
    w.n = static_cast<int>(n);
    w.k_padded = tensor::kernels::QuantPaddedK(w.k);
    w.n_padded = tensor::kernels::QuantPaddedN(w.n);
    w.max_abs_error = layer.max_abs_error;
    w.data_view = SectionArray<signed char>(sec, data_off, w.packed_size());
    w.scales_view = SectionArray<float>(
        sec, scales_off, static_cast<uint64_t>(w.n_padded));
    w.corrections_view = SectionArray<int32_t>(
        sec, corrections_off,
        static_cast<uint64_t>(w.num_groups()) * w.n_padded);
    const float* bias =
        SectionArray<float>(sec, bias_off, static_cast<uint64_t>(w.n));
    if (w.data_view == nullptr || w.scales_view == nullptr ||
        w.corrections_view == nullptr || bias == nullptr) {
      return false;
    }
    // Scales feed fused multiply-adds directly; a NaN/negative scale is
    // the one corruption that cheap metadata checks can still catch
    // (the packed int8 payload is covered by the section checksums
    // verified in tooling/tests — scanning it here would be O(bytes)
    // and defeat the O(pages) load).
    for (int j = 0; j < w.n_padded; ++j) {
      if (!std::isfinite(w.scales_view[j]) || w.scales_view[j] < 0.0f) {
        return false;
      }
    }
    layer.bias = tensor::Matrix::FromView(1, w.n, bias);
  }
  return true;
}

bool ParseGraphSection(const SectionRef& sec, InferenceBundle* bundle,
                       std::string* error) {
  RawReader r{sec.data, sec.length};
  const uint32_t v_count = r.U32();
  const uint32_t signed_edges = r.U32();
  const uint32_t skeleton_edges = r.U32();
  r.U32();  // reserved
  const uint64_t signed_off = r.U64();
  const uint64_t endpoints_off = r.U64();
  const uint64_t offsets_off = r.U64();
  const uint64_t neighbors_off = r.U64();
  const uint64_t edge_ids_off = r.U64();
  if (!r.ok || v_count > kMaxGraphCount || signed_edges > kMaxGraphCount ||
      skeleton_edges > kMaxGraphCount) {
    *error = "graph descriptor out of range";
    return false;
  }
  const int32_t* triples = SectionArray<int32_t>(
      sec, signed_off, static_cast<uint64_t>(signed_edges) * 3);
  const int* endpoints = SectionArray<int>(
      sec, endpoints_off, static_cast<uint64_t>(skeleton_edges) * 2);
  const int* offsets =
      SectionArray<int>(sec, offsets_off, static_cast<uint64_t>(v_count) + 1);
  const int* neighbors = SectionArray<int>(
      sec, neighbors_off, static_cast<uint64_t>(skeleton_edges) * 2);
  const int* edge_ids = SectionArray<int>(
      sec, edge_ids_off, static_cast<uint64_t>(skeleton_edges) * 2);
  if (triples == nullptr || endpoints == nullptr || offsets == nullptr ||
      neighbors == nullptr || edge_ids == nullptr) {
    *error = "graph arrays out of bounds";
    return false;
  }

  // The signed DDI edge list is the one graph structure rebuilt on the
  // heap (SignOf needs its index); validation mirrors ReadSignedGraph.
  std::vector<graph::SignedEdge> edges;
  edges.reserve(signed_edges);
  for (uint32_t i = 0; i < signed_edges; ++i) {
    graph::SignedEdge edge;
    edge.u = triples[3 * i];
    edge.v = triples[3 * i + 1];
    const int32_t sign = triples[3 * i + 2];
    if (sign < -1 || sign > 1 || edge.u < 0 || edge.v < 0 ||
        edge.u >= static_cast<int>(v_count) ||
        edge.v >= static_cast<int>(v_count)) {
      *error = "signed edge out of range";
      return false;
    }
    edge.sign = static_cast<graph::EdgeSign>(sign);
    edges.push_back(edge);
  }
  bundle->ddi =
      graph::SignedGraph(static_cast<int>(v_count), std::move(edges));

  // FromCsrView re-checks every structural invariant of the mapped CSR
  // arrays; on top of that, prove the stored skeleton IS this DDI
  // graph's interaction skeleton: every stored edge is an interacting
  // pair, and every interacting pair is stored. Both directions plus
  // the enforced lexicographic edge order make the view bit-equivalent
  // to ddi.InteractionSkeleton() — same edge set, same edge ids — so
  // explanations cannot drift from the graph they cite.
  if (!graph::Graph::FromCsrView(static_cast<int>(v_count),
                                 static_cast<int>(skeleton_edges), endpoints,
                                 offsets, neighbors, edge_ids,
                                 &bundle->ms_skeleton, error)) {
    return false;
  }
  for (int e = 0; e < static_cast<int>(skeleton_edges); ++e) {
    const auto [u, v] = bundle->ms_skeleton.Edge(e);
    if (bundle->ddi.SignOf(u, v) == graph::EdgeSign::kNone) {
      *error = "skeleton edge without a DDI interaction";
      return false;
    }
  }
  for (const auto& edge : bundle->ddi.edges()) {
    if (edge.sign != graph::EdgeSign::kNone &&
        !bundle->ms_skeleton.HasEdge(edge.u, edge.v)) {
      *error = "DDI interaction missing from skeleton";
      return false;
    }
  }
  bundle->has_ms_skeleton = true;
  return true;
}

/// Semantic validation after parsing: cross-field dimension consistency,
/// MLP layer-shape chains, and (when a quantized companion was shipped)
/// float/quantized agreement. Never touches tensor payload bytes, so the
/// load stays O(pages touched).
Status ValidateLoadedBundle(const InferenceBundle& bundle,
                            const std::string& path, bool has_quantized) {
  if (bundle.ms_explainer < 0 || bundle.ms_explainer > 1) {
    return Status::Error("malformed bundle payload: " + path);
  }
  // Cross-field consistency so a loaded bundle cannot index out of range.
  if (bundle.ddi.num_vertices() != bundle.num_drugs() ||
      bundle.cluster_treatment.cols() != bundle.num_drugs() ||
      bundle.final_drug_reps.cols() != bundle.hidden_dim ||
      (!bundle.drug_names.empty() &&
       static_cast<int>(bundle.drug_names.size()) != bundle.num_drugs())) {
    return Status::Error("inconsistent bundle dimensions: " + path);
  }
  // The extent/alignment checks of the section parsers catch corruption;
  // these shape checks catch semantically impossible bundles that would
  // otherwise abort (layer-width CHECK) or read out of bounds (a decoder
  // emitting zero columns) at scoring time. Untrusted files must fail
  // here, at load, with a Status.
  const auto chain_ok = [](const FrozenMlp& mlp, int in_width, int out_width) {
    int width = in_width;
    for (const auto& layer : mlp.layers) {
      if (layer.weight.rows() != width) return false;
      width = layer.weight.cols();
    }
    return out_width < 0 || width == out_width;
  };
  const int feature_width = bundle.cluster_centroids.cols();
  const int interaction_dim = bundle.mlp_decoder ? bundle.hidden_dim : 1;
  if (!chain_ok(bundle.patient_fc, feature_width, bundle.hidden_dim) ||
      !chain_ok(bundle.decoder, interaction_dim + 1, 1)) {
    return Status::Error("inconsistent bundle layer shapes: " + path);
  }
  // A shipped quantized section must describe exactly the float layers
  // it rides with.
  const auto quantized_matches = [](const FrozenMlp& mlp) {
    if (mlp.quantized.layers.size() != mlp.layers.size()) return false;
    for (size_t i = 0; i < mlp.layers.size(); ++i) {
      const auto& f = mlp.layers[i];
      const auto& q = mlp.quantized.layers[i];
      if (q.weights.k != f.weight.rows() || q.weights.n != f.weight.cols() ||
          q.activation != f.activation) {
        return false;
      }
    }
    return true;
  };
  if (has_quantized && (!quantized_matches(bundle.patient_fc) ||
                        !quantized_matches(bundle.decoder))) {
    return Status::Error("quantized section disagrees with float layers: " + path);
  }
  return Status::Ok();
}

}  // namespace

Status SaveInferenceBundleV4(const std::string& path,
                             const InferenceBundle& bundle) {
  struct Section {
    uint32_t type;
    std::string bytes;
  };
  std::vector<Section> sections;
  sections.push_back({kSectionMeta, BuildMetaSection(bundle)});
  sections.push_back({kSectionPatientMlp, BuildMlpSection(bundle.patient_fc)});
  sections.push_back({kSectionDecoderMlp, BuildMlpSection(bundle.decoder)});
  sections.push_back({kSectionDrugReps,
                      BuildMatrixSection(bundle.final_drug_reps)});
  sections.push_back({kSectionCentroids,
                      BuildMatrixSection(bundle.cluster_centroids)});
  sections.push_back({kSectionTreatment,
                      BuildMatrixSection(bundle.cluster_treatment)});
  if (!bundle.patient_fc.quantized.empty() &&
      !bundle.decoder.quantized.empty()) {
    sections.push_back({kSectionQuantPatient,
                        BuildQuantSection(bundle.patient_fc.quantized)});
    sections.push_back({kSectionQuantDecoder,
                        BuildQuantSection(bundle.decoder.quantized)});
  }
  sections.push_back({kSectionGraph, BuildGraphSection(bundle)});

  const uint64_t table_end =
      kHeaderBytes + sections.size() * kSectionEntryBytes;
  std::vector<uint64_t> offsets(sections.size());
  uint64_t cursor = AlignUp(table_end, kBundleV4SectionAlign);
  for (size_t i = 0; i < sections.size(); ++i) {
    offsets[i] = cursor;
    cursor = AlignUp(cursor + sections[i].bytes.size(), kBundleV4SectionAlign);
  }
  const uint64_t file_size =
      offsets.back() + sections.back().bytes.size();

  std::string file;
  file.reserve(file_size);
  AppendU32(&file, kBundleV4Magic);
  AppendU32(&file, kBundleV4HeaderVersion);
  AppendU32(&file, kFormatInferenceBundle);
  AppendU32(&file, kBundleV4Version);
  AppendU64(&file, file_size);
  AppendU32(&file, static_cast<uint32_t>(sections.size()));
  AppendU32(&file, 0);
  for (size_t i = 0; i < sections.size(); ++i) {
    AppendU32(&file, sections[i].type);
    AppendU32(&file, 0);
    AppendU64(&file, offsets[i]);
    AppendU64(&file, sections[i].bytes.size());
    AppendU64(&file, Fnv1a64(sections[i].bytes));
  }
  for (size_t i = 0; i < sections.size(); ++i) {
    file.resize(offsets[i], '\0');
    file += sections[i].bytes;
  }
  DSSDDI_CHECK(file.size() == file_size);
  return WriteStringToFile(path, file);
}


Status LoadInferenceBundleV4(const std::string& path, InferenceBundle* bundle,
                             bool prefault) {
  auto mapping = std::make_shared<MmapFile>();
  if (Status status = MmapFile::Open(path, mapping.get(), prefault);
      !status.ok) {
    return status;
  }
  std::vector<SectionRef> sections;
  if (Status status = ParseSectionTable(*mapping, path, &sections);
      !status.ok) {
    return status;
  }
  // Pin the mapping on the bundle BEFORE building views into it, so even
  // a load that fails halfway leaves the bundle's pointers backed until
  // the caller discards it.
  bundle->mapping = std::move(mapping);

  const SectionRef* by_type[kSectionGraph + 1] = {};
  for (const SectionRef& sec : sections) by_type[sec.type] = &sec;
  const auto malformed = [&path](const std::string& what) {
    return Status::Error("malformed v4 bundle (" + what + "): " + path);
  };

  if (!ParseMetaSection(*by_type[kSectionMeta], bundle)) {
    return malformed("bad metadata section");
  }
  if (!ParseMlpSection(*by_type[kSectionPatientMlp], &bundle->patient_fc)) {
    return malformed("bad patient encoder section");
  }
  if (!ParseMlpSection(*by_type[kSectionDecoderMlp], &bundle->decoder)) {
    return malformed("bad decoder section");
  }
  if (!ParseMatrixSection(*by_type[kSectionDrugReps],
                          &bundle->final_drug_reps) ||
      !ParseMatrixSection(*by_type[kSectionCentroids],
                          &bundle->cluster_centroids) ||
      !ParseMatrixSection(*by_type[kSectionTreatment],
                          &bundle->cluster_treatment)) {
    return malformed("bad matrix section");
  }
  std::string graph_error;
  if (!ParseGraphSection(*by_type[kSectionGraph], bundle, &graph_error)) {
    return malformed("bad graph section: " + graph_error);
  }
  const bool has_quantized = by_type[kSectionQuantPatient] != nullptr;
  if (has_quantized) {
    if (!ParseQuantSection(*by_type[kSectionQuantPatient],
                           &bundle->patient_fc.quantized) ||
        !ParseQuantSection(*by_type[kSectionQuantDecoder],
                           &bundle->decoder.quantized)) {
      return malformed("bad quantized section");
    }
  }
  if (Status status = ValidateLoadedBundle(*bundle, path, has_quantized);
      !status.ok) {
    return status;
  }
  // A v4 file written without int8 companions (possible for a bundle
  // quantized with "none" pinned) rebuilds them from the mapped floats —
  // deterministic, so identical to a shipped section.
  bundle->EnsureQuantized();
  return Status::Ok();
}

Status VerifyBundleV4Checksums(const std::string& path) {
  MmapFile mapping;
  if (Status status = MmapFile::Open(path, &mapping); !status.ok) {
    return status;
  }
  std::vector<SectionRef> sections;
  if (Status status = ParseSectionTable(mapping, path, &sections);
      !status.ok) {
    return status;
  }
  for (const SectionRef& sec : sections) {
    const uint64_t actual = Fnv1a64(
        reinterpret_cast<const char*>(sec.data), sec.length);
    if (actual != sec.checksum) {
      return Status::Error("section checksum mismatch (type " +
                           std::to_string(sec.type) + "): " + path);
    }
  }
  return Status::Ok();
}

}  // namespace dssddi::io
