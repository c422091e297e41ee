// Scratch directory and whole-file helpers shared by the store suites.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace seqrtg::store::test {

/// Fresh per-test scratch directory, removed on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("seqrtg_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

inline std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary | std::ios::ate);
  std::string data(static_cast<std::size_t>(in.tellg()), '\0');
  in.seekg(0);
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  return data;
}

inline void write_file(const std::filesystem::path& p,
                       const std::string& data) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

}  // namespace seqrtg::store::test
