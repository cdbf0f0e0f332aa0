// SessionStore journal: what reaches the file, and what does not.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "peerhood/session_store.hpp"

namespace peerhood {
namespace {

class SessionStoreFileTest : public ::testing::Test {
 protected:
  SessionStoreFileTest() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "session_store_XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) != nullptr) dir_ = tmpl;
  }
  ~SessionStoreFileTest() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  [[nodiscard]] std::string journal() const { return dir_ + "/journal"; }

  [[nodiscard]] static std::string contents(const std::string& path) {
    std::ifstream in{path};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  [[nodiscard]] static ino_t inode(const std::string& path) {
    struct stat info {};
    return ::stat(path.c_str(), &info) == 0 ? info.st_ino : 0;
  }

  std::string dir_;
};

TEST_F(SessionStoreFileTest, EraseOfUnknownIdLeavesJournalUntouched) {
  ASSERT_FALSE(dir_.empty());
  SessionStore store;
  store.bind_file(journal());
  store.put(SessionRecord{7, MacAddress::from_index(2), "echo", 5, 9});
  const std::string before = contents(journal());
  const ino_t before_inode = inode(journal());
  ASSERT_NE(before_inode, 0u);
  ASSERT_NE(before.find("v1 7 "), std::string::npos);

  store.erase(99);  // no record for this id
  EXPECT_EQ(inode(journal()), before_inode);
  EXPECT_EQ(contents(journal()), before);

  store.erase(7);  // a real erase still rewrites the journal
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(contents(journal()), "");
}

}  // namespace
}  // namespace peerhood
