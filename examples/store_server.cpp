// Hosts any of the embedded stores behind the epoll binary-protocol
// server (src/net), so YCSB clients can drive it over TCP:
//
//   ./store_server store=cassandra dir=/tmp/db nodes=4 port=7421
//   ./ycsb_cli load store=remote addr=127.0.0.1:7421 connections=64 ...
//
// port=0 binds an ephemeral port; portfile=F writes the bound port there
// once the server is listening (how scripts and CI synchronize startup).
// seconds=S exits after S seconds; otherwise the server runs until
// SIGINT/SIGTERM. See docs/serving.md.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "common/properties.h"
#include "net/server.h"
#include "stores/factory.h"

using namespace apmbench;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [store=<name>] [dir=<path>] [nodes=N] [host=H] "
          "[port=P] [portfile=F]\n"
          "          [event_threads=N] [seconds=S] [compression=none|lz]\n"
          "          [<store property>=<value> ...]\n"
          "stores: cassandra hbase voldemort redis voltdb mysql\n",
          argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Properties args;
  for (int i = 1; i < argc; i++) {
    if (!args.ParseArg(argv[i]).ok()) return Usage(argv[0]);
  }

  stores::StoreOptions store_options;
  store_options.base_dir = args.GetString("dir", "/tmp/apmbench-served");
  store_options.num_nodes = static_cast<int>(args.GetInt("nodes", 1));
  store_options.mysql_limit_scans = args.GetBool("mysql_limit_scans", false);
  store_options.redis_aof = args.GetBool("redis_aof", false);
  std::string compression = args.GetString("compression", "none");
  if (!ParseCompressionType(compression, &store_options.lsm_compression)) {
    fprintf(stderr, "compression must be none or lz, got %s\n",
            compression.c_str());
    return 1;
  }
  std::string store_name = args.GetString("store", "cassandra");
  std::unique_ptr<ycsb::DB> db;
  Status status = stores::CreateStore(store_name, store_options, &db);
  if (!status.ok()) {
    fprintf(stderr, "open %s: %s\n", store_name.c_str(),
            status.ToString().c_str());
    return 1;
  }

  net::ServerOptions server_options;
  server_options.host = args.GetString("host", "127.0.0.1");
  server_options.port = static_cast<int>(args.GetInt("port", 7421));
  server_options.event_threads =
      static_cast<int>(args.GetInt("event_threads", 2));
  net::Server server(server_options, db.get());
  status = server.Start();
  if (!status.ok()) {
    fprintf(stderr, "start: %s\n", status.ToString().c_str());
    return 1;
  }
  printf("[store_server] %s on %s, listening on port %d "
         "(%d event threads)\n",
         store_name.c_str(), store_options.base_dir.c_str(), server.port(),
         server_options.event_threads);
  fflush(stdout);
  std::string portfile = args.GetString("portfile", "");
  if (!portfile.empty()) {
    FILE* f = fopen(portfile.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot write portfile %s\n", portfile.c_str());
      return 1;
    }
    fprintf(f, "%d\n", server.port());
    fclose(f);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  double seconds = args.GetDouble("seconds", 0.0);
  double elapsed = 0.0;
  while (!g_stop && (seconds <= 0.0 || elapsed < seconds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    elapsed += 0.1;
  }

  net::Server::Stats stats = server.GetStats();
  server.Stop();
  printf("[store_server] shut down: %llu connections, %llu requests, "
         "%llu batches, %.1f MB in, %.1f MB out, %llu bad frames\n",
         static_cast<unsigned long long>(stats.accepted),
         static_cast<unsigned long long>(stats.requests),
         static_cast<unsigned long long>(stats.batches),
         static_cast<double>(stats.bytes_in) / 1e6,
         static_cast<double>(stats.bytes_out) / 1e6,
         static_cast<unsigned long long>(stats.bad_frames));
  return 0;
}
