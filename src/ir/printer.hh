/**
 * @file
 * Human-readable dumps of IR programs, optionally with layout
 * addresses (used by the Figure 2 example and debugging).
 */

#ifndef BRANCHLAB_IR_PRINTER_HH
#define BRANCHLAB_IR_PRINTER_HH

#include <ostream>
#include <string>

#include "ir/layout.hh"
#include "ir/program.hh"

namespace branchlab::ir
{

/** Name one instruction's position, e.g. "main.loop[3]": the form
 *  every verifier and lint message uses. */
std::string formatLocation(const Function &func, BlockId block,
                           std::size_t index);

/** formatLocation of @p loc in @p program. */
std::string formatLocation(const Program &program, const CodeLocation &loc);

/** Render one instruction as text, e.g. "add r3, r1, r2". */
std::string formatInstruction(const Program &program,
                              const Function &func,
                              const Instruction &inst);

/** Print a whole function with block labels. */
void printFunction(std::ostream &os, const Program &program,
                   const Function &func);

/** Print a whole program. */
void printProgram(std::ostream &os, const Program &program);

/** Print a program with per-instruction layout addresses. */
void printProgramWithAddrs(std::ostream &os, const Program &program,
                           const Layout &layout);

} // namespace branchlab::ir

#endif // BRANCHLAB_IR_PRINTER_HH
