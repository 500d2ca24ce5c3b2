// Deployable clinic workflow: train the decision support system once,
// export the frozen inference bundle to disk, reload it (as a clinic
// host without the training stack would), and print doctor-facing
// reports with safety audits for unseen patients.
//
//   ./examples/dss_cli [options]
//     --patients N      number of test patients to report on (default 3)
//     --k K             suggestion size (default 4)
//     --model PATH      bundle path (default /tmp/dssddi_model.dssb)
//     --reuse           skip training if the bundle file already loads
//
// This exercises the io::InferenceBundle path end to end: scores produced
// by the reloaded bundle are bit-identical to the in-process system.

#include <cstdio>
#include <cstring>
#include <string>

#include "app/importance.h"
#include "app/report.h"
#include "core/dssddi_system.h"
#include "data/catalog.h"
#include "data/chronic_cohort.h"
#include "data/dataset.h"
#include "io/bundle_v4.h"
#include "io/inference_bundle.h"

int main(int argc, char** argv) {
  using namespace dssddi;

  int num_patients = 3;
  int k = 4;
  std::string model_path = "/tmp/dssddi_model.dssb";
  bool reuse = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--patients") && i + 1 < argc) {
      num_patients = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--k") && i + 1 < argc) {
      k = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--model") && i + 1 < argc) {
      model_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--reuse")) {
      reuse = true;
    } else {
      std::printf("usage: %s [--patients N] [--k K] [--model PATH] [--reuse]\n",
                  argv[0]);
      return 1;
    }
  }

  data::ChronicDatasetOptions data_options;
  data_options.cohort.num_males = 500;
  data_options.cohort.num_females = 400;
  const data::SuggestionDataset dataset = data::BuildChronicDataset(data_options);

  io::InferenceBundle bundle;
  bool loaded = false;
  if (reuse) {
    if (io::Status status = io::LoadInferenceBundle(model_path, &bundle); status.ok) {
      std::printf("reusing trained model from %s (%s)\n\n", model_path.c_str(),
                  bundle.display_name.c_str());
      loaded = true;
    } else {
      std::printf("cannot reuse model: %s\ntraining from scratch instead.\n\n",
                  status.message.c_str());
    }
  }

  if (!loaded) {
    core::DssddiConfig config;
    config.ddi.epochs = 150;
    config.md.epochs = 200;
    core::DssddiSystem system(config);
    std::printf("training %s on %zu observed patients...\n", system.name().c_str(),
                dataset.split.train.size());
    system.Fit(dataset);

    bundle = io::ExtractInferenceBundle(system, dataset);
    if (io::Status status = io::SaveInferenceBundleV4(model_path, bundle); !status.ok) {
      std::printf("warning: could not save model: %s\n", status.message.c_str());
    } else {
      std::printf("model exported to %s\n", model_path.c_str());
      // Reload immediately so the rest of the run exercises exactly what a
      // clinic host would execute.
      io::InferenceBundle reloaded;
      if (io::LoadInferenceBundle(model_path, &reloaded).ok) bundle = reloaded;
    }
    std::printf("\n");
  }

  const auto& feature_names = data::ChronicCohortGenerator::FeatureNames();
  for (int p = 0; p < num_patients && p < static_cast<int>(dataset.split.test.size());
       ++p) {
    const int patient = dataset.split.test[p];
    const tensor::Matrix x = dataset.patient_features.GatherRows({patient});
    const core::Suggestion suggestion = bundle.Suggest(x, k);

    app::ReportOptions options;
    options.patient_label = std::to_string(patient);
    std::vector<float> features(x.RowPtr(0), x.RowPtr(0) + x.cols());
    std::printf("%s", app::RenderClinicReport(suggestion, bundle.drug_names,
                                              feature_names, features, options)
                          .c_str());

    // Which patient features drove the top suggestion (occlusion).
    if (!suggestion.drugs.empty()) {
      const app::ScoreFn scorer = [&](const tensor::Matrix& batch) {
        return bundle.PredictScores(batch);
      };
      const auto attributions =
          app::OcclusionImportance(scorer, x, suggestion.drugs[0]);
      std::printf("Top features behind %s:\n%s",
                  bundle.drug_names[suggestion.drugs[0]].c_str(),
                  app::RenderImportance(attributions, feature_names, 5).c_str());
    }

    // Safety audit against what the patient currently takes.
    std::vector<int> current;
    for (int v = 0; v < dataset.num_drugs(); ++v) {
      if (dataset.medication.At(patient, v) > 0.5f) current.push_back(v);
    }
    const auto flags = app::AuditSuggestion(suggestion.drugs, current, dataset.ddi);
    std::printf("Safety audit vs current regimen (%zu drugs):\n%s\n", current.size(),
                app::RenderSafetyFlags(flags, bundle.drug_names).c_str());
  }
  return 0;
}
