// Simulated Coyote v2 device: the card plus its driver.
//
// Owns the full substrate stack — event engine, host/card/GPU memory, shared
// virtual memory, XDMA, the dynamic-layer data mover, writeback engine,
// reconfiguration controller, vFPGAs, and optional services (RoCE stack,
// traffic sniffer) — and wires them together exactly like the shell does:
//
//   static layer    = XdmaCore + ReconfigController + MSI-X dispatch
//   dynamic layer   = DataMover (packetizer/interleaver/crediter) + MMUs +
//                     CardMemory + RoceStack + TrafficSniffer
//   app layer       = N Vfpga regions
//
// The host-facing API (cThread, cRcnfg) lives on top of this class the same
// way Coyote v2's user library sits on the character device.
//
// Config holds only what a caller varies: the part, the shell, the vFPGA,
// data mover, XDMA bandwidth and card geometry settings, v1 mode and the
// IP. The driver's own figures — doorbell and ioctl latency, bitstream
// staging rates, the ICAP retry budget — are constants of the class.

#ifndef SRC_RUNTIME_DEVICE_H_
#define SRC_RUNTIME_DEVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/dyn/data_mover.h"
#include "src/dyn/writeback.h"
#include "src/dyn/xdma.h"
#include "src/fabric/bitstream.h"
#include "src/fabric/floorplan.h"
#include "src/fabric/part.h"
#include "src/fabric/reconfig_port.h"
#include "src/fabric/shell_config.h"
#include "src/memsys/card_memory.h"
#include "src/memsys/gpu_memory.h"
#include "src/memsys/host_memory.h"
#include "src/memsys/nvme.h"
#include "src/mmu/mmu.h"
#include "src/mmu/svm.h"
#include "src/mmu/tiering.h"
#include "src/net/network.h"
#include "src/net/roce.h"
#include "src/net/sniffer.h"
#include "src/net/tcp.h"
#include "src/sim/engine.h"
#include "src/vfpga/vfpga.h"

namespace coyote {
namespace runtime {

class Supervisor;

class SimDevice {
 public:
  struct Config {
    fabric::FpgaPart part = fabric::kAlveoU55C;
    fabric::ShellConfigDesc shell;  // initial shell configuration
    vfpga::Vfpga::Config vfpga;
    dyn::DataMover::Config data_mover;
    dyn::XdmaCore::Config xdma;
    // num_channels == 0 (the default here) means "use the part's geometry";
    // set it explicitly to sweep channel counts (Fig. 7(a)).
    memsys::CardMemory::Config card{.num_channels = 0};

    // Coyote v1 compatibility mode (baseline for Fig. 11): single host
    // stream, no service reconfiguration.
    bool v1_compat = false;

    // External network: IP of this device's 100G port.
    uint32_t ip = 0x0A000001;  // 10.0.0.1
  };

  // Software/driver path latencies.
  static constexpr sim::TimePs kInvokeLatency = sim::Microseconds(5);  // doorbell -> DMA start
  static constexpr sim::TimePs kIoctlLatency = sim::Microseconds(10);  // reconfig etc.
  // Bitstream staging (Table 3 total-vs-kernel split).
  static constexpr uint64_t kDiskReadBps = 90'000'000ull;
  static constexpr uint64_t kKernelCopyBps = 6'000'000'000ull;
  // ICAP programming attempts before a reconfiguration is reported failed
  // (a fault injector can abort individual attempts).
  static constexpr uint32_t kReconfigMaxRetries = 3;

  // `network` may be nullptr when the shell has no networking service.
  // `shared_engine` lets multiple devices (and the network) share one event
  // engine for distributed experiments; by default the device owns one.
  SimDevice(const Config& config, net::Network* network = nullptr,
            sim::Engine* shared_engine = nullptr);
  ~SimDevice();

  SimDevice(const SimDevice&) = delete;
  SimDevice& operator=(const SimDevice&) = delete;

  // --- Component access ------------------------------------------------------
  sim::Engine& engine() { return *engine_; }
  memsys::HostMemory& host_memory() { return host_; }
  memsys::CardMemory& card_memory() { return *card_; }
  memsys::GpuMemory& gpu_memory() { return gpu_; }
  mmu::Svm& svm() { return svm_; }
  dyn::XdmaCore& xdma() { return *xdma_; }
  dyn::DataMover& data_mover() { return *mover_; }
  dyn::WritebackEngine& writeback() { return *writeback_; }
  vfpga::Vfpga& vfpga(uint32_t id) { return *vfpgas_.at(id); }
  mmu::Mmu& vfpga_mmu(uint32_t id) { return *mmus_.at(id); }
  uint32_t num_vfpgas() const { return static_cast<uint32_t>(vfpgas_.size()); }
  net::RoceStack* roce() { return roce_.get(); }
  net::TcpStack* tcp() { return tcp_.get(); }
  net::TrafficSniffer* sniffer() { return sniffer_.get(); }
  // The NVMe drive is an external device: its contents persist across shell
  // reconfigurations, but the FPGA can only reach it while the active shell
  // provides the storage service (nullptr otherwise).
  memsys::NvmeDrive* nvme() {
    return active_shell_.HasService(fabric::Service::kStorage) ? &nvme_drive_ : nullptr;
  }
  memsys::NvmeDrive& nvme_drive() { return nvme_drive_; }

  // --- Memory tiering service (ROADMAP item 4) -------------------------------
  // Creates the profiling + policy layer over the device's SVM, attaches its
  // profiler to the Svm and every vFPGA MMU, and starts epoch sampling.
  // Calling again stops and replaces the previous service (fresh heat
  // state). The tick reschedules itself, so drain-style callers must Stop()
  // it first; WaitFor (condition-based) is unaffected.
  mmu::Tiering& EnableTiering(const mmu::Tiering::Config& tiering_config);
  // nullptr until EnableTiering.
  mmu::Tiering* tiering() { return tiering_.get(); }
  const fabric::Floorplan& floorplan() const { return floorplan_; }
  fabric::ReconfigController& reconfig_controller() { return *reconfig_; }
  const fabric::ShellConfigDesc& active_shell() const { return active_shell_; }
  const Config& config() const { return config_; }

  // --- Kernel registry ---------------------------------------------------------
  // Bitstream names ("app:<kernel>") resolve to kernel instances through this
  // registry when a region is reconfigured.
  using KernelFactory = std::function<std::unique_ptr<vfpga::HwKernel>()>;
  void RegisterKernelFactory(const std::string& name, KernelFactory factory);

  // --- Bitstream "filesystem" ----------------------------------------------------
  void WriteBitstreamFile(const std::string& path, const fabric::PartialBitstream& bs);
  const fabric::PartialBitstream* FindBitstreamFile(const std::string& path) const;

  // --- Reconfiguration (driver side; cRcnfg calls these) --------------------------
  struct ReconfigResult {
    bool ok = false;
    std::string error;
    sim::TimePs kernel_latency = 0;  // pure ICAP programming
    sim::TimePs total_latency = 0;   // + disk read + copy + driver overhead
    uint32_t attempts = 0;           // ICAP programming attempts consumed
    bool used_fallback = false;      // cRcnfg fell back to a secondary bitstream
  };
  using ReconfigDone = std::function<void(const ReconfigResult&)>;
  // Event-driven, like the driver's ioctl and the shell's done interrupt: the
  // call returns at once and `on_done` runs exactly once, always from an
  // event and never inside the call — when the ICAP raises kMsixReconfigDone,
  // after the retry budget is spent, or one zero-delay event after a
  // validation failure. The rest of the device keeps running meanwhile.
  // cRcnfg is the blocking host-side form.
  void ReconfigureShell(const std::string& bitstream_path, ReconfigDone on_done);
  void ReconfigureApp(const std::string& bitstream_path, uint32_t vfpga_id,
                      ReconfigDone on_done);

  // --- Interrupt dispatch (driver -> user space eventfd) ---------------------------
  using UserInterruptCallback = std::function<void(uint32_t vfpga_id, uint64_t value)>;
  void SetUserInterruptCallback(UserInterruptCallback cb) { user_irq_cb_ = std::move(cb); }

  // Runs the engine until `done` returns true (host-side blocking wait).
  bool WaitFor(const std::function<bool()>& done) { return engine_->RunUntilCondition(done); }

  // Wires a fault injector into every fault-capable component of the device
  // (ICAP controller, XDMA links, per-vFPGA MMUs, vFPGA kernels, the RoCE
  // stack). Not owned; call with nullptr to detach. The injector is
  // remembered so services recreated by a shell reconfiguration are rewired.
  void AttachFaultInjector(sim::FaultInjector* injector);

  // Supervision hook: when a supervisor is attached, cThread deadline misses
  // are reported to it so the watchdog can treat them as early hang evidence.
  void SetSupervisor(Supervisor* supervisor) { supervisor_ = supervisor; }
  Supervisor* supervisor() { return supervisor_; }
  void NotifyOpDeadline(uint32_t vfpga_id);

  // Driver-side cThread id allocation (one id space per vFPGA).
  uint32_t AllocateCtid(uint32_t vfpga_id) { return next_ctid_[vfpga_id]++; }

  // --- Shell status registers (BAR-mapped monitoring, §5.1) -------------------
  // The shell exposes live counters through the control BAR, the way the real
  // shell memory-maps TLB/network/interrupt registers. Offsets below; per-
  // vFPGA registers are at base + vfpga_id * kStatusStride.
  static constexpr uint32_t kStatusH2cBytes = 0x100;
  static constexpr uint32_t kStatusC2hBytes = 0x101;
  static constexpr uint32_t kStatusPacketsMoved = 0x102;
  static constexpr uint32_t kStatusPageFaults = 0x103;
  static constexpr uint32_t kStatusWritebacks = 0x104;
  static constexpr uint32_t kStatusMsixRaised = 0x105;
  static constexpr uint32_t kStatusMigrations = 0x106;
  static constexpr uint32_t kStatusVfpgaBase = 0x200;  // + id * stride
  static constexpr uint32_t kStatusStride = 0x10;
  static constexpr uint32_t kStatusTlbHits = 0;      // per-vFPGA offsets
  static constexpr uint32_t kStatusTlbMisses = 1;
  static constexpr uint32_t kStatusUserIrqs = 2;
  static constexpr uint32_t kStatusSendsPosted = 3;

 private:
  void BuildShellServices();
  void TearDownShellServices();
  // One programming attempt of `bytes` (attempt number `attempt`, begun at
  // `start`); a failed attempt restages until kReconfigMaxRetries are spent.
  void StageAndProgram(uint64_t bytes, sim::TimePs start, uint32_t attempt,
                       ReconfigDone on_done);
  // Reports a validation failure one zero-delay event later.
  void FailReconfig(std::string error, ReconfigDone on_done);
  const KernelFactory* FactoryFor(const std::string& bitstream_name) const;

  Config config_;
  std::unique_ptr<sim::Engine> owned_engine_;
  sim::Engine* engine_;  // == owned_engine_.get() unless shared
  fabric::Floorplan floorplan_;

  memsys::HostMemory host_;
  std::unique_ptr<memsys::CardMemory> card_;
  memsys::GpuMemory gpu_;
  mmu::Svm svm_;
  memsys::NvmeDrive nvme_drive_;

  std::unique_ptr<dyn::XdmaCore> xdma_;
  std::unique_ptr<dyn::DataMover> mover_;
  std::unique_ptr<dyn::WritebackEngine> writeback_;
  std::unique_ptr<fabric::ReconfigController> reconfig_;

  std::vector<std::unique_ptr<vfpga::Vfpga>> vfpgas_;
  std::vector<std::unique_ptr<mmu::Mmu>> mmus_;
  std::unique_ptr<mmu::Tiering> tiering_;

  net::Network* network_ = nullptr;
  std::unique_ptr<net::RoceStack> roce_;
  std::unique_ptr<net::TcpStack> tcp_;
  std::unique_ptr<net::TrafficSniffer> sniffer_;

  fabric::ShellConfigDesc active_shell_;
  std::map<std::string, KernelFactory> kernel_factories_;
  std::map<std::string, fabric::PartialBitstream> bitstream_files_;

  UserInterruptCallback user_irq_cb_;
  std::map<uint32_t, uint32_t> next_ctid_;

  sim::FaultInjector* injector_ = nullptr;  // not owned
  Supervisor* supervisor_ = nullptr;        // not owned
};

}  // namespace runtime
}  // namespace coyote

#endif  // SRC_RUNTIME_DEVICE_H_
