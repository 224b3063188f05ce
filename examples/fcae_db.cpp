// End-to-end integration demo: two databases fed the same write-heavy
// workload — one compacting on the CPU, one offloading compactions to
// the simulated FPGA card — then verified to hold identical contents.
// Prints the offload statistics the DB collects (kernels launched,
// device cycles, modeled PCIe time).
//
//   ./examples/fcae_db [num_ops]

#include <cstdio>
#include <cstdlib>

#include <memory>

#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "table/iterator.h"
#include "util/mem_env.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace {

/// Demo helper: abort on any failed DB operation.
void OrDie(const fcae::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fcae;

  const int num_ops = argc > 1 ? std::atoi(argv[1]) : 20000;

  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));

  // The simulated card: 9-input engine (W_in=8, V=8), the largest
  // configuration that fits the KCU1500 (Table VII).
  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 9;
  engine_config.input_width = 8;
  engine_config.value_width = 8;
  host::DeviceSet devices(engine_config, /*num_cards=*/1);
  host::FcaeCompactionExecutor executor(&devices);

  auto open_db = [&](const std::string& name,
                     CompactionExecutor* exec) -> std::unique_ptr<DB> {
    Options options;
    options.env = env.get();
    options.create_if_missing = true;
    options.write_buffer_size = 256 * 1024;  // Flush often for the demo.
    options.compaction_executor = exec;
    DB* db = nullptr;
    Status s = DB::Open(options, name, &db);
    if (!s.ok()) {
      std::fprintf(stderr, "open %s: %s\n", name.c_str(),
                   s.ToString().c_str());
      std::exit(1);
    }
    return std::unique_ptr<DB>(db);
  };

  std::unique_ptr<DB> cpu_db = open_db("/cpu_db", nullptr);
  std::unique_ptr<DB> fcae_db = open_db("/fcae_db", &executor);

  std::printf("writing %d ops into both databases...\n", num_ops);
  workload::KeyFormatter keys(16);
  workload::ValueGenerator values(7);
  Random rnd(42);
  WriteOptions wo;
  for (int i = 0; i < num_ops; i++) {
    std::string key = keys.Format(rnd.Uniform(num_ops / 4 + 1));
    if (rnd.Uniform(10) < 8) {
      std::string value = values.Generate(128 + rnd.Uniform(512));
      OrDie(cpu_db->Put(wo, key, value), "cpu put");
      OrDie(fcae_db->Put(wo, key, value), "fcae put");
    } else {
      OrDie(cpu_db->Delete(wo, key), "cpu delete");
      OrDie(fcae_db->Delete(wo, key), "fcae delete");
    }
  }

  // Force both through full compactions.
  for (DB* db : {cpu_db.get(), fcae_db.get()}) {
    auto* impl = reinterpret_cast<DBImpl*>(db);
    OrDie(impl->TEST_CompactMemTable(), "flush");
    for (int level = 0; level < kNumLevels - 1; level++) {
      impl->TEST_CompactRange(level, nullptr, nullptr);
    }
  }

  // Verify identical logical contents.
  std::unique_ptr<Iterator> a(cpu_db->NewIterator(ReadOptions()));
  std::unique_ptr<Iterator> b(fcae_db->NewIterator(ReadOptions()));
  a->SeekToFirst();
  b->SeekToFirst();
  size_t entries = 0;
  while (a->Valid() && b->Valid()) {
    if (a->key() != b->key() || a->value() != b->value()) {
      std::fprintf(stderr, "DIVERGENCE at entry %zu!\n", entries);
      return 1;
    }
    a->Next();
    b->Next();
    entries++;
  }
  if (a->Valid() || b->Valid()) {
    std::fprintf(stderr, "DIVERGENCE: different entry counts!\n");
    return 1;
  }
  std::printf("verified: both databases hold the same %zu entries\n",
              entries);

  auto* impl = reinterpret_cast<DBImpl*>(fcae_db.get());
  CompactionExecStats stats = impl->OffloadStats();
  std::printf("\noffload statistics (fcae_db):\n");
  std::printf("  kernels launched : %llu\n",
              (unsigned long long)devices.device(0)->kernels_launched());
  std::printf("  device cycles    : %llu (%.2f ms at 200 MHz)\n",
              (unsigned long long)stats.device_cycles,
              stats.device_micros / 1e3);
  std::printf("  modeled PCIe time: %.2f ms\n", stats.pcie_micros / 1e3);
  std::printf("  records merged   : %llu (dropped %llu)\n",
              (unsigned long long)stats.entries_in,
              (unsigned long long)stats.entries_dropped);

  std::string prop;
  if (fcae_db->GetProperty("fcae.stats", &prop)) {
    std::printf("\n%s\n", prop.c_str());
  }
  return 0;
}
