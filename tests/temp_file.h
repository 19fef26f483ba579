// Per-test scratch files. Each TempFile lives in its own mkdtemp directory
// named from the running gtest case and the pid, so test cases that run
// in parallel (ctest -j) never share or delete each other's files.

#ifndef COUNTLIB_TESTS_TEMP_FILE_H_
#define COUNTLIB_TESTS_TEMP_FILE_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace countlib {

/// \brief A file path `<dir>/<name>` in a fresh directory under $TMPDIR (or
/// /tmp); the destructor removes the file and the directory.
class TempFile {
 public:
  explicit TempFile(const std::string& name = "file") {
    const char* tmp = std::getenv("TMPDIR");
    std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    dir += "/countlib_";
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    if (info != nullptr) {
      // Parameterized names carry '/', which cannot go in one path component.
      for (const char c : std::string(info->test_suite_name()) + "." +
                              info->name()) {
        dir.push_back(c == '/' ? '_' : c);
      }
    }
    dir += "_" + std::to_string(getpid()) + "_XXXXXX";
    std::vector<char> buf(dir.begin(), dir.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) != nullptr) dir_ = buf.data();
    EXPECT_FALSE(dir_.empty()) << "mkdtemp failed for " << dir;
    path_ = dir_ + "/" + name;
  }
  ~TempFile() {
    std::remove(path_.c_str());
    if (!dir_.empty()) rmdir(dir_.c_str());
  }

  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const char* path() const { return path_.c_str(); }

 private:
  std::string dir_;
  std::string path_;
};

}  // namespace countlib

#endif  // COUNTLIB_TESTS_TEMP_FILE_H_
