/**
 * @file
 * A private native-code cache for one test binary.
 *
 * Linked into every test binary that compiles native regions: a global
 * gtest environment points $ZIRIA_CGEN_CACHE at a fresh temporary
 * directory before the first test, so test runs neither fill nor depend
 * on the user's ~/.cache/ziria/zcgen.  Cache-behaviour tests that need a
 * cold cache make their own directory and pass it explicitly.
 */
#include <cstdlib>

#include <gtest/gtest.h>

namespace {

class CgenCacheEnv : public ::testing::Environment
{
  public:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/ziria-cgen-test-XXXXXX";
        char* dir = mkdtemp(tmpl);
        ASSERT_NE(dir, nullptr) << "mkdtemp failed";
        setenv("ZIRIA_CGEN_CACHE", dir, 1);
    }
};

[[maybe_unused]] const ::testing::Environment* const kCacheEnv =
    ::testing::AddGlobalTestEnvironment(new CgenCacheEnv);

} // namespace
