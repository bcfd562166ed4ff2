/**
 * @file
 * Reproduces the paper's Figure 2 end to end: build a small program
 * with a likely branch over an unlikely one, profile it, run the
 * Forward Semantic transformation, and print the before/after
 * listings with the forward-slot copies and the adjusted target.
 *
 * Run:  ./build/examples/fs_transform_demo
 */

#include <iostream>

#include "ir/builder.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "profile/fs_opt.hh"
#include "vm/machine.hh"

using namespace branchlab;

namespace
{

/**
 * The Figure 2 shape: a hot loop whose closing branch is likely
 * taken, and right behind its target an unlikely conditional guarding
 * a rare path -- after filling, the unlikely branch is absorbed into
 * the forward slots, keeping its own target (the figure's key point).
 */
ir::Program
buildFigure2()
{
    ir::Program prog("figure2");
    ir::IrBuilder b(prog);
    b.beginFunction("main");
    const ir::Reg n = b.newReg();
    const ir::Reg acc = b.newReg();
    b.ldiTo(n, 64);
    b.ldiTo(acc, 0);
    b.doWhile(
        [&] {
            const ir::Reg r = b.remi(n, 16);
            // Unlikely: true once every 16 iterations.
            b.ifThen([&] { return ir::IrBuilder::cmpEqi(r, 0); },
                     [&] {
                         b.emitBinaryImmTo(ir::Opcode::Add, acc, acc,
                                           1000);
                     });
            b.emitBinaryImmTo(ir::Opcode::Add, acc, acc, 1);
            b.emitBinaryImmTo(ir::Opcode::Sub, n, n, 1);
        },
        [&] { return ir::IrBuilder::cmpGti(n, 0); });
    b.out(acc, 1);
    b.halt();
    b.endFunction();
    return prog;
}

} // namespace

int
main()
{
    ir::Program prog = buildFigure2();
    ir::verifyProgramOrDie(prog);
    const ir::Layout layout(prog);

    std::cout << "=== Original program (creation-order layout) ===\n";
    ir::printProgramWithAddrs(std::cout, prog, layout);

    // Profile one run.
    profile::ProgramProfile profile(prog, layout);
    profile.noteRun();
    vm::Machine machine(prog, layout);
    machine.setSink(&profile);
    machine.run();

    // Transform with k + l = 2, exactly Figure 2's slot count. The
    // optimizer's level none is the paper's transform as it stands.
    profile::FsOptConfig config;
    config.fs.slotCount = 2;
    const profile::FsOptResult transformed =
        profile::FsOptimizer(profile, config).build();
    const profile::FsResult &image = transformed.image;

    std::cout << "\n=== After the Forward Semantic transformation ===\n";
    profile::printFsImage(std::cout, profile, image);

    std::cout << "\nSlot sites:\n";
    for (const profile::SlotSite &site : image.sites) {
        std::cout << "  branch at image index " << site.branchImageIndex
                  << ": copied " << site.copied << ", padded "
                  << site.padded << ", target advanced by "
                  << site.copied << " (paper: target_addr += k+l)\n";
    }
    std::cout << "\nReversed conditionals (alignment): "
              << image.reversed.size() << "\n";
    std::cout << "Code size: " << image.originalSize << " -> "
              << image.expandedSize() << " (+"
              << formatPercent(image.codeSizeIncrease(), 2) << ")\n";

    const profile::FsVerifyResult verdict =
        profile::verifyFsOptImage(profile, transformed);
    std::cout << "Invariant check: "
              << (verdict.ok() ? "OK" : verdict.message()) << "\n";
    return verdict.ok() ? 0 : 1;
}
