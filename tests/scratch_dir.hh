/**
 * @file
 * A test's scratch directory: a fresh directory under the test temp
 * dir that is removed, with everything in it, when the test ends --
 * also when a failed assertion returns from the test early.
 */

#ifndef BRANCHLAB_TESTS_SCRATCH_DIR_HH
#define BRANCHLAB_TESTS_SCRATCH_DIR_HH

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace branchlab::test
{

class ScratchDir
{
  public:
    /** ::testing::TempDir() + @p name, emptied of what an earlier run
     *  left, and created when @p create. */
    explicit ScratchDir(const std::string &name, bool create = false)
        : path_(::testing::TempDir() + name)
    {
        std::filesystem::remove_all(path_);
        if (create)
            std::filesystem::create_directories(path_);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace branchlab::test

#endif // BRANCHLAB_TESTS_SCRATCH_DIR_HH
