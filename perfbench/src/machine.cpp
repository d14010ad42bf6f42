#include "machine.hpp"

#include <unistd.h>

#include <fstream>
#include <thread>

namespace pb {

MachineRecord machine_record() {
  MachineRecord m;
  m.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  m.hardware_concurrency = std::thread::hardware_concurrency();
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) m.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (m.cpu_model.empty()) m.cpu_model = "unknown";
  m.compiler = PB_COMPILER;
  m.build_type = PB_BUILD_TYPE;
  m.git_commit = PB_GIT_COMMIT;
  return m;
}

}  // namespace pb
