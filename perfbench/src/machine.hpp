#pragma once
// The machine and build record stamped into every result.

#include <string>

namespace pb {

struct MachineRecord {
  long nproc = 0;                  ///< online processors (sysconf)
  unsigned hardware_concurrency = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string git_commit;          ///< "unknown" outside a git checkout
};

MachineRecord machine_record();

}  // namespace pb
