#ifndef DSSDDI_EXAMPLES_EXAMPLE_BUNDLE_H_
#define DSSDDI_EXAMPLES_EXAMPLE_BUNDLE_H_

// Shared bundle bootstrap for the serving demos: reuse the frozen model
// file when it loads, otherwise train a small chronic-cohort system and
// export it (the dss_cli workflow). serve_cli and http_server_cli both
// go through this, so they serve the same model the same way.

#include <cstdio>
#include <string>

#include "core/dssddi_system.h"
#include "data/chronic_cohort.h"
#include "data/dataset.h"
#include "io/bundle_v4.h"
#include "io/inference_bundle.h"

namespace dssddi::examples {

inline io::InferenceBundle LoadOrTrainBundle(const std::string& path) {
  io::InferenceBundle bundle;
  if (io::LoadInferenceBundle(path, &bundle).ok) {
    std::printf("loaded bundle '%s' from %s (%d drugs)\n",
                bundle.display_name.c_str(), path.c_str(), bundle.num_drugs());
    return bundle;
  }
  std::printf("no usable bundle at %s — training one (about a minute)...\n",
              path.c_str());
  data::ChronicDatasetOptions data_options;
  data_options.cohort.num_males = 300;
  data_options.cohort.num_females = 200;
  const data::SuggestionDataset dataset = data::BuildChronicDataset(data_options);
  core::DssddiConfig config;
  config.ddi.epochs = 120;
  config.md.epochs = 120;
  core::DssddiSystem system(config);
  system.Fit(dataset);
  bundle = io::ExtractInferenceBundle(system, dataset);
  if (const io::Status status = io::SaveInferenceBundleV4(path, bundle);
      !status.ok) {
    std::printf("warning: could not save bundle: %s\n", status.message.c_str());
  } else {
    std::printf("exported bundle to %s\n", path.c_str());
  }
  return bundle;
}

}  // namespace dssddi::examples

#endif  // DSSDDI_EXAMPLES_EXAMPLE_BUNDLE_H_
