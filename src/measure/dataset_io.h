// Dataset persistence.
//
// The paper released its measurement dataset alongside publication; this
// module gives the reproduction the same property (`campaign_run
// --dataset DIR` writes it). A dataset serialises to four CSV files in a
// directory (clients.csv, doh.csv, do53.csv, meta.csv) and loads back
// bit-exactly (doubles are round-tripped via %.17g).
#pragma once

#include <string>

#include "measure/dataset.h"

namespace dohperf::measure {

/// Writes `dataset` into `directory` (created if missing). Throws
/// std::runtime_error on I/O failure.
void save_dataset(const Dataset& dataset, const std::string& directory);

/// Loads a dataset previously written by save_dataset. Strict: throws
/// std::runtime_error on a missing file, a bad header, a malformed or
/// short row, an integer its field cannot hold, a via_atlas other than
/// 0/1, or a meta.csv without exactly one data row.
[[nodiscard]] Dataset load_dataset(const std::string& directory);

}  // namespace dohperf::measure
