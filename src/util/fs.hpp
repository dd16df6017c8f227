// Small filesystem helpers for the writer paths: every file the tool
// emits (metrics JSON, traces, journals, webhook stubs) should be able to
// land in a directory that does not exist yet instead of failing the run
// at the very end.
#pragma once

#include <string>

namespace vapro::util {

// Creates `dir` and every missing parent.  Returns false when `dir` is not
// a directory afterwards (e.g. it names a regular file).
bool ensure_dir(const std::string& dir);

// Creates every missing directory on the parent path of `file_path`.
// Returns false only when a directory genuinely could not be created; a
// path with no parent component succeeds trivially.
bool ensure_parent_dirs(const std::string& file_path);

}  // namespace vapro::util
