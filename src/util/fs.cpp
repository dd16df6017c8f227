#include "src/util/fs.hpp"

#include <filesystem>
#include <system_error>

namespace vapro::util {

bool ensure_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  // Whatever create_directories reports (an existing path is no error),
  // only a directory will do.
  return std::filesystem::is_directory(dir, ec);
}

bool ensure_parent_dirs(const std::string& file_path) {
  const std::filesystem::path parent =
      std::filesystem::path(file_path).parent_path();
  return parent.empty() || ensure_dir(parent.string());
}

}  // namespace vapro::util
