// Long fields within small objects (paper 2): "a person object with
// attributes name, picture, and voice can be mapped to a small database
// object that contains the short field name and two long field
// descriptors". This example builds exactly that on the Database shell:
// short fields live in the catalog name, each long field is a separate
// large object, and different engines can be chosen per attribute - the
// paper's motivation for treating long fields individually (e.g. separate
// compression for pictures and audio).
//
// It also demonstrates persistence: the database is saved to a file and
// reopened, and the long fields survive byte for byte.

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "core/database.h"

using namespace lob;

namespace {

std::string SyntheticMedia(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  Rng rng(seed);
  for (auto& c : out) c = static_cast<char>(rng.Next() & 0xff);
  return out;
}

Status Run() {
  const char* image_path = "person_records.lobdb";

  // --- Session 1: create a person with two long fields. -----------------
  {
    auto db = Database::Create();
    LOB_RETURN_IF_ERROR(db.status());

    // picture: large, write-once, read-sequentially -> Starburst-style
    // extents are ideal.
    auto picture =
        (*db)->CreateObject("person/42/picture", Engine::kStarburst);
    LOB_RETURN_IF_ERROR(picture.status());
    auto pic_mgr = (*db)->ManagerFor(Engine::kStarburst);
    LOB_RETURN_IF_ERROR(pic_mgr.status());
    LOB_RETURN_IF_ERROR(
        (*pic_mgr)->Append(*picture, SyntheticMedia(1, 2 * 1024 * 1024)));

    // voice: an annotated recording that gets edited -> EOS handles the
    // length-changing updates gracefully.
    auto voice = (*db)->CreateObject("person/42/voice", Engine::kEos, 16);
    LOB_RETURN_IF_ERROR(voice.status());
    auto voice_mgr = (*db)->ManagerFor(Engine::kEos, 16);
    LOB_RETURN_IF_ERROR(voice_mgr.status());
    LOB_RETURN_IF_ERROR(
        (*voice_mgr)->Append(*voice, SyntheticMedia(2, 512 * 1024)));
    // Splice an announcement into the middle of the recording.
    LOB_RETURN_IF_ERROR(
        (*voice_mgr)->Insert(*voice, 100000, SyntheticMedia(3, 30000)));

    LOB_RETURN_IF_ERROR((*db)->Save(image_path));
    std::printf("session 1: stored picture (2 MB, Starburst) and voice\n"
                "           (512 KB + 30 KB splice, EOS) under person/42\n");
  }

  // --- Session 2: reopen and verify. ------------------------------------
  bool verified = false;
  {
    auto db = Database::Open(image_path);
    LOB_RETURN_IF_ERROR(db.status());
    auto list = (*db)->catalog()->List();
    LOB_RETURN_IF_ERROR(list.status());
    std::printf("session 2: reopened; catalog holds %zu long fields:\n",
                list->size());
    for (const auto& [name, id] : *list) {
      auto engine = (*db)->ObjectEngine(id);
      LOB_RETURN_IF_ERROR(engine.status());
      auto mgr = (*db)->ManagerForObject(id, 16);
      LOB_RETURN_IF_ERROR(mgr.status());
      auto size = (*mgr)->Size(id);
      LOB_RETURN_IF_ERROR(size.status());
      std::printf("  %-22s %-10s %8llu bytes\n", name.c_str(),
                  EngineName(*engine),
                  static_cast<unsigned long long>(*size));
    }

    // Byte-exact verification of the edited voice field.
    auto voice = (*db)->Lookup("person/42/voice");
    LOB_RETURN_IF_ERROR(voice.status());
    auto mgr = (*db)->ManagerForObject(*voice, 16);
    LOB_RETURN_IF_ERROR(mgr.status());
    std::string expect = SyntheticMedia(2, 512 * 1024);
    expect.insert(100000, SyntheticMedia(3, 30000));
    std::string got;
    LOB_RETURN_IF_ERROR((*mgr)->Read(*voice, 0, expect.size(), &got));
    verified = got == expect;
    std::printf("voice field after reopen: %s\n",
                verified ? "verified byte-for-byte" : "MISMATCH");
  }
  std::remove(image_path);
  if (!verified) return Status::Corruption("voice field differs after reopen");
  return Status::OK();
}

}  // namespace

int main() {
  std::printf("person_records: long fields within a small object\n\n");
  Status s = Run();
  if (!s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
