// ABI compatibility guard (paper Sec. III-E): the sorted-typeid translation
// scheme "requires the used C++ compilers to have a compatible ABI" — the
// setup C-API verifies a type-table fingerprint before ham_main ever runs.
#include <gtest/gtest.h>

#include "offload/app_image.hpp"
#include "offload/offload.hpp"
#include "support/sim_fixture.hpp"
#include "tests/offload/test_kernels.hpp"
#include "veo/veo_api.hpp"

namespace ham::offload {
namespace {

namespace tk = testkernels;

TEST(AbiGuard, FingerprintsAgreeAcrossImages) {
    // Same catalog, different layouts: the fingerprint hashes the *sorted*
    // names, so it is layout-independent — like the keys themselves.
    const auto host = ham::handler_registry::build(host_image_options());
    const auto target = ham::handler_registry::build(ve_image_options());
    EXPECT_EQ(host.fingerprint(), target.fingerprint());
    EXPECT_NE(host.fingerprint(), 0u);
}

TEST(AbiGuard, FingerprintDeterministicAcrossBuilds) {
    const auto a = ham::handler_registry::build(host_image_options());
    const auto b = ham::handler_registry::build(host_image_options());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(AbiGuard, ImageRegistriesEqualAFreshBuild) {
    // Each image's registry is built once per OS process; it must hold the
    // tables a build with the image's options yields: same keys, addresses,
    // names, function keys and fingerprint.
    const std::size_t catalog = ham::message_catalog::instance().entries().size();
    for (const auto& [once, opt] :
         {std::pair{&host_image_registry(), host_image_options()},
          std::pair{&ve_image_registry(), ve_image_options()},
          std::pair{&queue_target_image_registry(),
                    queue_target_image_options()}}) {
        const auto fresh = ham::handler_registry::build(opt);
        EXPECT_EQ(once->fingerprint(), fresh.fingerprint());
        ASSERT_EQ(once->handler_count(), fresh.handler_count());
        ASSERT_EQ(once->handler_count(), catalog);
        for (std::size_t i = 0; i < catalog; ++i) {
            const handler_key key = fresh.key_of_catalog_index(i);
            EXPECT_EQ(once->key_of_catalog_index(i), key);
            EXPECT_EQ(once->address_of_key(key), fresh.address_of_key(key));
            EXPECT_EQ(once->name_of_key(key), fresh.name_of_key(key));
        }
        ASSERT_EQ(once->function_count(), fresh.function_count());
        for (std::size_t k = 0; k < fresh.function_count(); ++k) {
            const auto key = static_cast<function_key>(k);
            EXPECT_EQ(once->function_of_key(key), fresh.function_of_key(key));
        }
    }
    EXPECT_EQ(&host_image_registry(), &host_image_registry());
    EXPECT_NE(host_image_registry().address_of_key(0),
              ve_image_registry().address_of_key(0));
}

TEST(AbiGuard, CompatibleBinariesPassEndToEnd) {
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    runtime_options opt;
    opt.backend = backend_kind::vedma;
    EXPECT_EQ(run(plat, opt, [] {
        EXPECT_EQ(sync(1, ham::f2f<&tk::add>(1, 1)), 2);
    }), 0);
}

TEST(AbiGuard, MismatchedFingerprintRejectedAtSetup) {
    // Drive the raw deployment path with a corrupted fingerprint — the VE
    // side must refuse before the message loop starts, exactly as a binary
    // built with an incompatible name-mangling scheme would be.
    aurora::sim::platform plat(aurora::sim::platform_config::test_machine());
    aurora::veos::veos_system sys(plat);
    sys.install_image(ham_app_image());

    aurora::testing::run_as_vh(plat, [&] {
        aurora::veo::proc_guard h(sys, 0);
        const auto lib = aurora::veo::veo_load_library(h.get(), app_image_name);
        const auto sym = aurora::veo::veo_get_sym(h.get(), lib, sym_setup_veo);
        auto* ctx = aurora::veo::veo_context_open(h.get());

        aurora::veo::veo_args* args = aurora::veo::veo_args_alloc();
        args->set_u64(0, 0x1000); // comm addr (never reached)
        args->set_u64(1, 8);
        args->set_u64(2, 4096);
        args->set_i64(3, 1);
        args->set_u64(4, 0xBAD0BAD0BAD0BAD0ULL); // wrong fingerprint
        std::uint64_t ret = 0;
        EXPECT_EQ(aurora::veo::veo_call_sync(ctx, sym, args, &ret),
                  aurora::veo::VEO_COMMAND_OK);
        EXPECT_EQ(ret, 1u); // setup reports the ABI mismatch
        aurora::veo::veo_args_free(args);
    });
}

} // namespace
} // namespace ham::offload
