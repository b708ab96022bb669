#include "src/runtime/device.h"

#include <string>
#include <utility>

#include "src/runtime/supervisor.h"

namespace coyote {
namespace runtime {

namespace {

// Card memory geometry follows the part unless the caller overrode it.
memsys::CardMemory::Config CardConfigFor(const SimDevice::Config& config) {
  memsys::CardMemory::Config cfg = config.card;
  if (cfg.num_channels == 0) {
    cfg.num_channels = config.part.memory_channels;
  }
  return cfg;
}

}  // namespace

SimDevice::SimDevice(const Config& config, net::Network* network, sim::Engine* shared_engine)
    : config_(config),
      owned_engine_(shared_engine == nullptr ? std::make_unique<sim::Engine>() : nullptr),
      engine_(shared_engine == nullptr ? owned_engine_.get() : shared_engine),
      floorplan_(fabric::Floorplan::ForPart(config.part, config.shell.num_vfpgas)),
      card_(std::make_unique<memsys::CardMemory>(engine_, CardConfigFor(config))),
      svm_(engine_, &host_, card_.get(), &gpu_, config.shell.page_bytes),
      nvme_drive_(engine_),
      network_(network) {
  active_shell_ = config_.shell;

  svm_.set_nvme(&nvme_drive_);
  xdma_ = std::make_unique<dyn::XdmaCore>(engine_, config_.xdma);
  mover_ = std::make_unique<dyn::DataMover>(engine_, &svm_, card_.get(), &gpu_, xdma_.get(),
                                            config_.data_mover);
  mover_->SetNvme(&nvme_drive_);
  writeback_ = std::make_unique<dyn::WritebackEngine>(engine_, &host_, &xdma_->c2h());
  reconfig_ = std::make_unique<fabric::ReconfigController>(engine_,
                                                           config_.xdma.h2c_bps);
  svm_.set_hooks(mover_->MakeMigrationHooks());

  // MSI-X dispatch: the driver demultiplexes interrupt sources (§5.1). User
  // vectors go to the user callback; page faults are counted by the data
  // mover, which the BAR's page-fault status register reads.
  xdma_->SetMsixHandler([this](uint32_t vector, uint64_t value) {
    if (vector >= dyn::kMsixUserBase && user_irq_cb_) {
      user_irq_cb_(vector - dyn::kMsixUserBase, value);
    }
  });

  // Application layer: one region + one MMU per vFPGA.
  vfpga::Vfpga::Config vcfg = config_.vfpga;
  if (config_.v1_compat) {
    vcfg.num_host_streams = 1;  // Coyote v1: a single host stream
    vcfg.num_card_streams = 1;
  }
  for (uint32_t i = 0; i < config_.shell.num_vfpgas; ++i) {
    vfpgas_.push_back(std::make_unique<vfpga::Vfpga>(engine_, i, vcfg));
    const mmu::Tlb::Config tlb{.entries = config_.shell.tlb_entries,
                               .associativity = config_.shell.tlb_associativity,
                               .page_bytes = config_.shell.page_bytes};
    mmus_.push_back(std::make_unique<mmu::Mmu>(engine_, &svm_.page_table(), tlb));
    mover_->RegisterVfpga(i, mmus_.back().get());

    // Interrupt channel: user interrupts become MSI-X vectors.
    vfpga::Vfpga* region = vfpgas_.back().get();
    region->SetInterruptHandler([this, i](uint64_t value) {
      xdma_->RaiseMsix(dyn::kMsixUserBase + i, value);
    });
    // Send queues: hardware-issued DMA descriptors execute in the dynamic
    // layer without host involvement (§7.1).
    region->SetSendHandler([this, region, i](const vfpga::SendQueueEntry& e) {
      dyn::TransferRequest req{
          .vfpga_id = i, .tid = e.tid, .stream = e.stream, .vaddr = e.vaddr,
          .bytes = e.bytes, .target = e.target};
      if (e.remote) {
        // RDMA at the same vaddr on both nodes; a shell without the RDMA
        // service fails the entry and moves nothing.
        auto done = [region, e](bool ok) {
          region->PushCompletion({e.is_write, e.stream, e.tid, e.bytes, ok});
        };
        if (!roce_) {
          engine_->ScheduleAfter(0, [done]() { done(false); });
        } else if (e.is_write) {
          roce_->PostWrite(e.qpn, e.vaddr, e.vaddr, e.bytes, done);
        } else {
          roce_->PostRead(e.qpn, e.vaddr, e.vaddr, e.bytes, done);
        }
        return;
      }
      if (e.is_write) {
        mover_->Write(req, e.target == mmu::MemKind::kCard ? &region->card_out(e.stream)
                                                           : &region->host_out(e.stream),
                      [region, e](bool ok) {
                        region->PushCompletion({true, e.stream, e.tid, e.bytes, ok});
                      });
      } else {
        mover_->Read(req, e.target == mmu::MemKind::kCard ? &region->card_in(e.stream)
                                                          : &region->host_in(e.stream),
                     [region, e](bool ok) {
                       region->PushCompletion({false, e.stream, e.tid, e.bytes, ok});
                     });
      }
    });
  }

  BuildShellServices();

  // Publish live shell counters through the control BAR (read hooks, so each
  // BAR read observes the current value — like reading a status register).
  auto& bar = xdma_->bar();
  bar.SetReadHook(kStatusH2cBytes, [this](uint32_t) { return xdma_->h2c().total_bytes(); });
  bar.SetReadHook(kStatusC2hBytes, [this](uint32_t) { return xdma_->c2h().total_bytes(); });
  bar.SetReadHook(kStatusPacketsMoved, [this](uint32_t) { return mover_->packets_moved(); });
  bar.SetReadHook(kStatusPageFaults, [this](uint32_t) { return mover_->page_fault_irqs(); });
  bar.SetReadHook(kStatusWritebacks, [this](uint32_t) { return writeback_->writebacks(); });
  bar.SetReadHook(kStatusMsixRaised, [this](uint32_t) { return xdma_->msix_raised(); });
  bar.SetReadHook(kStatusMigrations, [this](uint32_t) { return svm_.migrations(); });
  for (uint32_t i = 0; i < config_.shell.num_vfpgas; ++i) {
    const uint32_t base = kStatusVfpgaBase + i * kStatusStride;
    bar.SetReadHook(base + kStatusTlbHits,
                    [this, i](uint32_t) { return mmus_[i]->tlb().hits(); });
    bar.SetReadHook(base + kStatusTlbMisses,
                    [this, i](uint32_t) { return mmus_[i]->tlb().misses(); });
    bar.SetReadHook(base + kStatusUserIrqs,
                    [this, i](uint32_t) { return vfpgas_[i]->user_interrupts(); });
    bar.SetReadHook(base + kStatusSendsPosted,
                    [this, i](uint32_t) { return vfpgas_[i]->sends_posted(); });
  }
}

SimDevice::~SimDevice() = default;

mmu::Tiering& SimDevice::EnableTiering(const mmu::Tiering::Config& tiering_config) {
  if (tiering_) {
    tiering_->Stop();
  }
  tiering_ = std::make_unique<mmu::Tiering>(engine_, &svm_, tiering_config);
  svm_.set_profiler(tiering_.get());
  for (auto& m : mmus_) {
    m->set_profiler(tiering_.get());
  }
  tiering_->Start();
  return *tiering_;
}

void SimDevice::BuildShellServices() {
  if (active_shell_.HasService(fabric::Service::kRdma) && network_ != nullptr) {
    roce_ = std::make_unique<net::RoceStack>(engine_, network_, config_.ip, &svm_);
    // A shell reconfiguration recreates the stack; keep it fault-capable.
    roce_->SetFaultInjector(injector_);
  }
  if (active_shell_.HasService(fabric::Service::kTcp) && network_ != nullptr) {
    tcp_ = std::make_unique<net::TcpStack>(engine_, network_, config_.ip, &svm_);
  }
  if (active_shell_.HasService(fabric::Service::kSniffer)) {
    sniffer_ = std::make_unique<net::TrafficSniffer>(engine_);
    if (roce_) {
      net::TrafficSniffer* sniff = sniffer_.get();
      roce_->SetTap([sniff](const axi::BufferView& frame, bool is_tx) {
        sniff->OnFrame(frame, is_tx);
      });
    }
  }
}

void SimDevice::TearDownShellServices() {
  if (roce_) {
    roce_->SetTap(nullptr);
  }
  sniffer_.reset();
  roce_.reset();
  tcp_.reset();
}

void SimDevice::RegisterKernelFactory(const std::string& name, KernelFactory factory) {
  kernel_factories_[name] = std::move(factory);
}

const SimDevice::KernelFactory* SimDevice::FactoryFor(const std::string& bitstream_name) const {
  // "app:<kernel>" -> "<kernel>".
  std::string key = bitstream_name;
  if (key.rfind("app:", 0) == 0) {
    key = key.substr(4);
  }
  auto it = kernel_factories_.find(key);
  return it == kernel_factories_.end() ? nullptr : &it->second;
}

void SimDevice::WriteBitstreamFile(const std::string& path,
                                   const fabric::PartialBitstream& bs) {
  bitstream_files_[path] = bs;
}

const fabric::PartialBitstream* SimDevice::FindBitstreamFile(const std::string& path) const {
  auto it = bitstream_files_.find(path);
  return it == bitstream_files_.end() ? nullptr : &it->second;
}

void SimDevice::StageAndProgram(uint64_t bytes, sim::TimePs start, uint32_t attempt,
                                ReconfigDone on_done) {
  // Host side: read the bitstream from disk and copy it into kernel space
  // (the Table 3 "total latency" components). An aborted program restages
  // from scratch — the driver re-validates the whole pipeline.
  const sim::TimePs disk = sim::TransferTime(bytes, kDiskReadBps);
  const sim::TimePs copy = sim::TransferTime(bytes, kKernelCopyBps);
  auto finish = [this, bytes, start, attempt, on_done = std::move(on_done)](bool ok) mutable {
    if (!ok && attempt < kReconfigMaxRetries) {
      StageAndProgram(bytes, start, attempt + 1, std::move(on_done));
      return;
    }
    ReconfigResult result;
    result.ok = ok;
    result.attempts = attempt;
    result.kernel_latency = reconfig_->ProgramLatency(bytes);
    result.total_latency = engine_->Now() - start;
    if (ok) {
      xdma_->RaiseMsix(dyn::kMsixReconfigDone, 0);
    } else {
      result.error = "ICAP programming failed after " + std::to_string(attempt) + " attempts";
    }
    on_done(result);
  };
  // ...then the ICAP programs the region (the "kernel latency").
  engine_->ScheduleAfter(kIoctlLatency + disk + copy,
                         [this, bytes, finish = std::move(finish)]() mutable {
                           reconfig_->ProgramAsync(bytes, std::move(finish));
                         });
}

void SimDevice::FailReconfig(std::string error, ReconfigDone on_done) {
  engine_->ScheduleAfter(0, [error = std::move(error), on_done = std::move(on_done)]() {
    ReconfigResult result;
    result.error = error;
    on_done(result);
  });
}

void SimDevice::ReconfigureShell(const std::string& bitstream_path, ReconfigDone on_done) {
  const fabric::PartialBitstream* bs = FindBitstreamFile(bitstream_path);
  std::string error;
  if (config_.v1_compat) {
    error = "Coyote v1 cannot reconfigure the service layer without a reboot";
  } else if (bs == nullptr) {
    error = "no such bitstream: " + bitstream_path;
  } else if (!bs->IsShell()) {
    error = "bitstream does not target the shell (dynamic) layer";
  }
  if (!error.empty()) {
    FailReconfig(std::move(error), std::move(on_done));
    return;
  }
  auto swap = [this, shell = bs->shell_config,
               on_done = std::move(on_done)](const ReconfigResult& result) {
    // A failed program leaves the previous shell active. A good one swaps the
    // service layer and resets the application regions: a shell
    // reconfiguration replaces both (§4).
    if (result.ok) {
      TearDownShellServices();
      active_shell_ = shell;
      for (auto& region : vfpgas_) {
        region->UnloadKernel();
      }
      BuildShellServices();
    }
    on_done(result);
  };
  StageAndProgram(bs->size_bytes, engine_->Now(), 1, std::move(swap));
}

void SimDevice::ReconfigureApp(const std::string& bitstream_path, uint32_t vfpga_id,
                               ReconfigDone on_done) {
  const fabric::PartialBitstream* bs = FindBitstreamFile(bitstream_path);
  const KernelFactory* factory = bs == nullptr ? nullptr : FactoryFor(bs->name);
  std::string error;
  if (bs == nullptr) {
    error = "no such bitstream: " + bitstream_path;
  } else if (bs->IsShell()) {
    error = "bitstream targets the shell, not a vFPGA region";
  } else if (vfpga_id >= vfpgas_.size()) {
    error = "vFPGA index out of range";
  } else if (bs->shell_config_id != active_shell_.ConfigId()) {
    // Link-time fail-safe (§4): the app must have been linked against the
    // currently active shell configuration.
    error = "bitstream was linked against a different shell configuration";
  } else if (factory == nullptr) {
    error = "no kernel registered for bitstream '" + bs->name + "'";
  }
  if (!error.empty()) {
    FailReconfig(std::move(error), std::move(on_done));
    return;
  }
  auto load = [this, vfpga_id, make = *factory,
               on_done = std::move(on_done)](const ReconfigResult& result) {
    if (result.ok) {  // a failed program leaves the region with what it held
      vfpgas_[vfpga_id]->LoadKernel(make());
    }
    on_done(result);
  };
  StageAndProgram(bs->size_bytes, engine_->Now(), 1, std::move(load));
}

void SimDevice::AttachFaultInjector(sim::FaultInjector* injector) {
  injector_ = injector;
  reconfig_->SetFaultInjector(injector);
  xdma_->SetFaultInjector(injector);
  for (auto& m : mmus_) {
    m->SetFaultInjector(injector);
  }
  for (auto& region : vfpgas_) {
    region->SetFaultInjector(injector);
  }
  if (roce_) {
    roce_->SetFaultInjector(injector);
  }
}

void SimDevice::NotifyOpDeadline(uint32_t vfpga_id) {
  if (supervisor_ != nullptr) {
    supervisor_->NoteDeadlineMiss(vfpga_id);
  }
}

}  // namespace runtime
}  // namespace coyote
